package main

// The fleet under test, built the way `adprom serve -tenants … -ingest-addr`
// builds it: a tenant.Router behind an ingest.Server on loopback TCP with
// the daemon's defaults (GOMAXPROCS workers, 256-call queues, Block, exact
// scorer, decision log on, tracing off, an alert sink). The benchmark's
// judge hook and alert sink record every verdict; the traced fleet also
// wraps the Router and installs a worker hook to time each stage.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/detect"
	"adprom/internal/hmm"
	"adprom/internal/ingest"
	"adprom/internal/profile"
	"adprom/internal/runtime"
	"adprom/internal/shed"
	"adprom/internal/sqlchan"
	"adprom/internal/tenant"
	"adprom/internal/trace"
)

// daemonTrainOptions are cmd/adprom's trainApp options.
var daemonTrainOptions = profile.Options{
	Train:           hmm.TrainOptions{MaxIters: 12},
	MaxTrainWindows: 1500,
}

// daemonSQLOptions are serve's -sql-channel defaults (-sql-sensitive
// name,balance); the fusion rule is the zero FusionConfig, i.e. defaults.
var daemonSQLOptions = sqlchan.Options{SensitiveColumns: []string{"name", "balance"}}

// daemonShedSeed is serve's -shed-seed default.
const daemonShedSeed = 1

// tenantModel is one tenant's trained or loaded detection material.
type tenantModel struct {
	name    string
	role    int
	prof    *profile.Profile
	sqlProf *sqlchan.Profile
}

// setupTimes breaks one daemon-equivalent start into its stages (seconds).
type setupTimes struct {
	collect, trainHMM, trainSQL, load, start, total float64
}

// loadModels trains (or loads from the fixture) both tenants' models,
// timing each stage.
func loadModels(sp *spec, fixturePath string, st *setupTimes) ([2]*tenantModel, error) {
	var out [2]*tenantModel
	for role, name := range [2]string{sp.hmmTenant, "appb"} {
		m := &tenantModel{name: name, role: role}
		if role == roleHMM && sp.fixture {
			t := time.Now()
			f, err := os.Open(fixturePath)
			if err != nil {
				return out, err
			}
			m.prof, err = profile.Load(f)
			f.Close()
			if err != nil {
				return out, fmt.Errorf("loading fixture %s: %w", fixturePath, err)
			}
			st.load += time.Since(t).Seconds()
			out[role] = m
			continue
		}
		app, err := lookupApp(name)
		if err != nil {
			return out, err
		}
		t := time.Now()
		traces, err := app.CollectTraces(collector.ModeADPROM)
		if err != nil {
			return out, err
		}
		t1 := time.Now()
		st.collect += t1.Sub(t).Seconds()
		if m.prof, _, err = core.Train(app.Prog, traces, daemonTrainOptions); err != nil {
			return out, fmt.Errorf("training %s: %w", name, err)
		}
		t2 := time.Now()
		st.trainHMM += t2.Sub(t1).Seconds()
		if role == roleFused {
			if m.sqlProf, err = sqlchan.Train(traces, daemonSQLOptions); err != nil {
				return out, fmt.Errorf("sql channel for %s: %w", name, err)
			}
			st.trainSQL += time.Since(t2).Seconds()
		}
		out[role] = m
	}
	return out, nil
}

// sinkMode selects what, if anything, sits between the ingest server and
// the Router.
type sinkMode int

const (
	// sinkDirect: the Router is the server's Sink, exactly as in the daemon.
	sinkDirect sinkMode = iota
	// sinkAdmit records per event how many calls the Router admitted, with
	// no clocks. Risk-aware shedding makes admission load-dependent, and the
	// verdict oracle and latency attribution need to know which calls each
	// session's engine saw.
	sinkAdmit
	// sinkTimed additionally stamps each event's arrival and Router return
	// (the traced run).
	sinkTimed
)

type fleet struct {
	models   [2]*tenantModel
	router   *tenant.Router
	srv      *ingest.Server
	serveErr chan error
	addr     string
	rec      *recorder
}

// startFleet builds router and server over already-loaded models and waits
// until the server is accepting connections.
func startFleet(sp *spec, models [2]*tenantModel, mode sinkMode) (*fleet, error) {
	rec := &recorder{timed: mode == sinkTimed, admit: mode != sinkDirect}
	opts := []runtime.Option{
		runtime.WithWorkers(0), // serve -workers default: GOMAXPROCS
		runtime.WithQueueDepth(sp.queue),
		runtime.WithScorerMode(hmm.ScorerExact),
	}
	if sp.shed {
		opts = append(opts, runtime.WithShedConfig(shed.Config{Seed: daemonShedSeed}))
	}
	if mode == sinkTimed {
		opts = append(opts, runtime.WithWorkerHook(rec.workerHook))
	}
	cfg := tenant.Config{
		MaxActive:      64, // serve -tenant-max-active default
		RuntimeOptions: opts,
		Static:         map[string]*profile.Profile{},
		PerTenant:      map[string][]runtime.Option{},
	}
	for role, m := range models {
		cfg.Static[m.name] = m.prof
		per := []runtime.Option{
			runtime.WithJudgeHook(rec.judgeHook()),
			runtime.WithAlertFunc(rec.alertFunc(role)),
		}
		if m.sqlProf != nil {
			per = append(per, runtime.WithSQLChannel(m.sqlProf), runtime.WithFusion(detect.FusionConfig{}))
		}
		cfg.PerTenant[m.name] = per
	}
	router, err := tenant.NewRouter(cfg)
	if err != nil {
		return nil, err
	}
	// Materialise both shards now, so no phase pays for a lazy load.
	for _, m := range models {
		if _, err := router.Shard(m.name); err != nil {
			router.Close()
			return nil, err
		}
	}
	var sink ingest.Sink = router
	if mode != sinkDirect {
		sink = &recordingSink{r: router, rec: rec}
	}
	srv, err := ingest.NewServer(ingest.ServerConfig{Sink: sink, Codec: ingest.CodecAuto})
	if err != nil {
		router.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		router.Close()
		return nil, err
	}
	f := &fleet{models: models, router: router, srv: srv, serveErr: make(chan error, 1), rec: rec}
	go func() { f.serveErr <- srv.Serve(ln) }()
	for srv.Addr() == "" {
		select {
		case err := <-f.serveErr:
			router.Close()
			return nil, fmt.Errorf("ingest server stopped: %v", err)
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	f.addr = srv.Addr()
	return f, nil
}

// close stops the server and drains the router; it returns once every
// goroutine the fleet started has exited.
func (f *fleet) close() error {
	f.srv.Close()
	err := <-f.serveErr
	if cerr := f.router.Close(); cerr != nil && !errors.Is(cerr, tenant.ErrClosed) && err == nil {
		err = cerr
	}
	return err
}

// ledger is the fleet's call accounting: what the server decoded and what
// the tenants scored, dropped or shed.
type ledger struct {
	accepted                               uint64
	serverCalls, decodeErrors, sinkRejects uint64
	activeConns                            int64
	scored, dropped, shed                  uint64
	alerts, sinkDropped, decisions         uint64
}

func (f *fleet) ledger() ledger {
	ss := f.srv.Stats()
	l := ledger{accepted: ss.Conns, serverCalls: ss.Calls, decodeErrors: ss.DecodeErrors, sinkRejects: ss.SinkRejects, activeConns: ss.ActiveConns}
	for _, m := range f.models {
		st, ok := f.router.TenantStats(m.name)
		if !ok {
			continue
		}
		l.scored += st.Runtime.Calls
		l.dropped += st.Runtime.Dropped
		l.shed += st.Runtime.Shed
		l.alerts += st.Runtime.AlertTotal()
		l.sinkDropped += st.Runtime.SinkDropped
		l.decisions += st.Runtime.DecisionsRecorded
	}
	return l
}

func (l ledger) minus(b ledger) ledger {
	return ledger{
		accepted:    l.accepted - b.accepted,
		serverCalls: l.serverCalls - b.serverCalls, decodeErrors: l.decodeErrors - b.decodeErrors,
		sinkRejects: l.sinkRejects - b.sinkRejects, activeConns: l.activeConns,
		scored: l.scored - b.scored, dropped: l.dropped - b.dropped, shed: l.shed - b.shed,
		alerts: l.alerts - b.alerts, sinkDropped: l.sinkDropped - b.sinkDropped,
		decisions: l.decisions - b.decisions,
	}
}

// busyNs sums the tenants' engine-side processing time (observe and flush
// histograms), the worker-busy numerator.
func (f *fleet) busyNs() int64 {
	var ns int64
	for _, m := range f.models {
		if sh, err := f.router.Shard(m.name); err == nil {
			h := sh.Runtime().Histograms()
			ns += h.Observe.Sum + h.Flush.Sum
		}
	}
	return ns
}

// Per-verdict records. All are pointer-free so the arenas cost the garbage
// collector nothing to scan.
type judgeRec struct {
	seq     int32
	op      int32 // traced: index of the session event whose op judged it
	flagged bool
	score   float64
	t       int64
}

type alertRec struct {
	sess, seq                           int32
	flag                                int8
	chans                               uint8
	t                                   int64
	score, thr, sqlScore, sqlThr, fused float64
	hash                                uint64
}

// evRec is one session event's admission and (traced) stage stamps.
type evRec struct {
	admitted                   int32 // calls the Router admitted; -1 = not recorded
	enqueued                   bool  // an op reached a worker queue
	tIn, tRet, tStart, tJudged int64
}

type sessRec struct {
	jStart, jCount, jCap int32
	evStart, evCount     int32
	// nextEv is advanced by the connection goroutine; started and curOp by
	// the session's worker.
	nextEv, started, curOp int32
}

// phaseRec is the hooks' view of the running phase.
type phaseRec struct {
	plan     *phasePlan
	sess     []sessRec
	judge    []judgeRec
	evs      []evRec // per session event, in session order (sessRec.evStart)
	evIndex  []int32 // plan event index of each evs slot
	alerts   [2][]alertRec
	alertN   [2]atomic.Int64
	overflow atomic.Int64
}

type recorder struct {
	timed, admit bool
	cur          atomic.Pointer[phaseRec]
	stray        atomic.Int64
}

func (rec *recorder) lookup(session string) (*phaseRec, *sessRec, int32) {
	pr := rec.cur.Load()
	if pr == nil {
		return nil, nil, -1
	}
	ph, idx, ok := parseSID(session)
	if !ok || ph != pr.plan.phase || int(idx) >= len(pr.sess) {
		return nil, nil, -1
	}
	return pr, &pr.sess[idx], idx
}

func (rec *recorder) judgeHook() runtime.JudgeHook {
	return func(session string, seq int, score float64, flagged bool) error {
		t := wallNs()
		pr, s, _ := rec.lookup(session)
		if pr == nil {
			rec.stray.Add(1)
			return nil
		}
		if s.jCount >= s.jCap {
			pr.overflow.Add(1)
			return nil
		}
		j := judgeRec{seq: int32(seq), op: -1, flagged: flagged, score: score, t: t}
		if rec.timed {
			j.op = s.curOp
			pr.evs[s.evStart+s.curOp].tJudged = t
		}
		pr.judge[s.jStart+s.jCount] = j
		s.jCount++
		return nil
	}
}

func (rec *recorder) alertFunc(role int) runtime.AlertFunc {
	return func(session string, a detect.Alert) {
		t := wallNs()
		pr, _, idx := rec.lookup(session)
		if pr == nil {
			rec.stray.Add(1)
			return
		}
		pr.alerts[role] = append(pr.alerts[role], summarize(idx, &a, t))
		pr.alertN[role].Add(1)
	}
}

// workerHook stamps each op's start. Ops of one session run in FIFO order on
// one worker, so the session's next enqueued event is the op starting now.
func (rec *recorder) workerHook(_ int, session string) {
	t := wallNs()
	pr, s, _ := rec.lookup(session)
	if pr == nil {
		return
	}
	for s.started < s.evCount && !pr.evs[s.evStart+s.started].enqueued {
		s.started++
	}
	if s.started >= s.evCount {
		pr.overflow.Add(1)
		return
	}
	s.curOp = s.started
	pr.evs[s.evStart+s.started].tStart = t
	s.started++
}

// recordingSink sits between the ingest server and the Router (sinkAdmit,
// sinkTimed). It forwards every event unchanged and records how many calls
// the Router admitted (and, when timed, the event's arrival and return).
type recordingSink struct {
	r   *tenant.Router
	rec *recorder
}

var _ ingest.TraceSink = (*recordingSink)(nil)

func (w *recordingSink) enter(session string) *evRec {
	var t int64
	if w.rec.timed {
		t = wallNs()
	}
	pr, s, _ := w.rec.lookup(session)
	if pr == nil || s.nextEv >= s.evCount {
		w.rec.stray.Add(1)
		return nil
	}
	ev := &pr.evs[s.evStart+s.nextEv]
	s.nextEv++
	ev.tIn = t
	// Optimistically enqueued: the worker may start the op before the
	// Router call returns; a fully refused event is corrected below, before
	// the connection delivers the session's next event.
	ev.enqueued = true
	return ev
}

func (w *recordingSink) leave(ev *evRec, calls int, err error) {
	if ev == nil {
		return
	}
	if w.rec.timed {
		ev.tRet = wallNs()
	}
	admitted := calls
	var bse *runtime.BatchShedError
	switch {
	case err == nil:
	case errors.As(err, &bse):
		admitted = bse.Batch - bse.Shed
	default:
		admitted = 0
	}
	ev.admitted = int32(admitted)
	if calls > 0 && admitted == 0 {
		ev.enqueued = false
	}
}

func (w *recordingSink) Observe(tenant, session string, calls []collector.Call) error {
	return w.ObserveTraced(trace.Context{}, tenant, session, calls)
}

func (w *recordingSink) ObserveTraced(tc trace.Context, tenant, session string, calls []collector.Call) error {
	ev := w.enter(session)
	err := w.r.ObserveTraced(tc, tenant, session, calls)
	w.leave(ev, len(calls), err)
	return err
}

func (w *recordingSink) Flush(tenant, session string) error {
	ev := w.enter(session)
	err := w.r.Flush(tenant, session)
	w.leave(ev, 0, err)
	return err
}

func (w *recordingSink) CloseSession(tenant, session string) error {
	ev := w.enter(session)
	err := w.r.CloseSession(tenant, session)
	w.leave(ev, 0, err)
	return err
}

// summarize reduces an alert to the pointer-free fields the oracle compares;
// the call identity and flagged window fold into one FNV-1a hash.
func summarize(sess int32, a *detect.Alert, t int64) alertRec {
	r := alertRec{
		sess: sess, seq: int32(a.Seq), flag: int8(a.Flag), t: t,
		score: a.Score, thr: a.Threshold, sqlScore: a.SQLScore, sqlThr: a.SQLThreshold, fused: a.FusedScore,
	}
	for _, ch := range a.Channels {
		r.chans |= 1 << uint(detect.ChannelIndex(ch)+1)
	}
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	mix(a.Label)
	mix(a.Caller)
	for _, w := range a.Window {
		mix(w)
	}
	h ^= uint64(len(a.Origins))
	r.hash = h
	return r
}
