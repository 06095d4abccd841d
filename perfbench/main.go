// Command perfbench is AD-PROM's wire-to-verdict fleet benchmark. It starts
// the multi-tenant daemon's serving stack in-process (tenant.Router behind
// an ingest.Server on loopback TCP), drives it from a separate generator
// process over two connections on a seeded schedule, and times every
// judgement and alert from the moment its wire event was due. Every run is
// also a correctness check: each verdict is compared with a sequential
// replay of the same session streams, and every call is accounted for.
//
// Usage (from the repository root; run.sh builds and execs this binary):
//
//	bash perfbench/run.sh --workload live-small --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics from a run whose fleet carries the benchmark's stage
// timers, plus single-thread replays of each layer. The last line of
// standard output is a JSON object; the lines before it print every metric
// by name with its unit, the sample counts, and the run's provenance.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"strings"
	"time"
)

// End-to-end and per-layer metric names, in BENCHMARK.json order.
// sustained_calls_per_s, alert latency, the p90/p99 latencies,
// failed_call_frac and the ledger counts are printed too but are not in the
// result line: the tail, alert latency on bulk-large and the ladder's
// crossing point spread too much from run to run on a shared 2-vCPU host to
// gate a change on, and the others are 0 on Block workloads (they are
// checked instead).
var endToEnd = []string{
	"setup_s", "drain_calls_per_s", "verdict_p50_ms",
	"cpu_us_per_call", "alloc_bytes_per_call", "peak_rss_mb", "attack_recall",
}

var perLayer = []string{
	"ingest.decode_ns_per_call", "ingest.wire_ms_p50", "ingest.wire_ms_p99",
	"tenant.observe_us_p50", "tenant.observe_us_p99", "tenant.route_ns",
	"runtime.queue_wait_ms_p50", "runtime.queue_wait_ms_p99",
	"runtime.op_us_p50", "runtime.op_us_p99", "runtime.worker_busy_frac", "runtime.queue_high_water",
	"detect.ns_per_call.hmm", "detect.ns_per_call.fused", "detect.flush_ns",
	"hmm.window_ns.hmm", "hmm.window_ns.fused",
	"sqlchan.query_ns", "sqlchan.alloc_bytes_per_query",
	"shed.shed_frac", "shed.miss_prob",
	"sink.delivery_ms_p50", "sink.delivery_ms_p99", "sink.dropped",
	"obsv.decisions_per_kcall",
	"profile.collect_s", "profile.train_hmm_s", "profile.train_sql_s", "profile.load_s", "setup.start_s",
	"loadgen.lateness_p99_ms", "loadgen.write_blocked_frac", "loadgen.prepare_s",
	"ledger.residual_frac", "ledger.unaccounted_calls", "ledger.trace_overhead_frac",
	"ledger.failed_call_frac", "ledger.verdict_mismatches",
}

// Phase plan indices: the traced run replays the untraced run's first drain
// and its nominal schedule (as one phase).
const (
	planDrain    = 0
	planProbe    = 1 // probes use 1, 2, 3, 4
	planNominal  = 5
	planNominal2 = 6  // the second half of the untraced run's nominal phase
	planDrains   = 10 // drains after the first use 11, 12, ...
	planRetry    = 90 // nominal halves measured again use 90, 91, ...
)

// nominalRetries is how many times a run measures a nominal half again
// when the generator could not keep its schedule.
const nominalRetries = 3

// drainPlan is the plan index of a run's r-th closed-loop drain. Plan
// indices are the two session-id phase digits, so stay below 100.
func drainPlan(r int) int {
	if r == 0 {
		return planDrain
	}
	return planDrains + r
}

func main() {
	workload := flag.String("workload", "", "workload name (bulk-large, live-small, overload-shed)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measuring time of one run, in seconds")
	traceFlag := flag.Int("trace", 0, "1 = per-layer metrics from a traced run; 0 = end-to-end metrics")
	genMode := flag.Bool("gen", false, "run as the load generator process (internal)")
	buildDir := flag.String("build-dir", ".bench_build", "directory for the app4 fixture")
	flag.Parse()
	if *genMode {
		if err := runGenerator(*workload, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench generator:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *traceFlag == 1, *buildDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runState collects what every phase of a run contributes to the
// correctness verdict and the call ledger.
type runState struct {
	phases     []*phaseOut
	attempted  int64
	lost       int64 // calls neither scored nor shed by design
	mismatches int
	unaccount  int64
	attacks    map[string]bool
	problems   []string
}

func (rs *runState) add(p *phaseOut, block bool) {
	rs.phases = append(rs.phases, p)
	rs.attempted += p.plan.calls
	l := p.led
	rs.unaccount += abs(p.plan.calls-int64(l.serverCalls)) + abs(int64(l.serverCalls)-int64(l.scored+l.dropped+l.shed))
	rs.lost += p.plan.calls - int64(l.scored) - int64(l.shed)
	rs.mismatches += p.v.mismatches
	if p.v.mismatchNote != "" {
		rs.problems = append(rs.problems, fmt.Sprintf("%s phase: first mismatch: %s", p.kind, p.v.mismatchNote))
	}
	if l.sinkDropped > 0 {
		rs.problems = append(rs.problems, fmt.Sprintf("%s phase: %d alerts dropped by the sink dispatcher", p.kind, l.sinkDropped))
	}
	for name := range p.v.attacksSeen {
		rs.attacks[name] = true
	}
	if block && (l.shed > 0 || l.dropped > 0) {
		rs.problems = append(rs.problems, fmt.Sprintf("%s phase: %d calls shed and %d dropped under Block", p.kind, l.shed, l.dropped))
	}
	if l.decodeErrors > 0 {
		rs.problems = append(rs.problems, fmt.Sprintf("%s phase: %d decode errors", p.kind, l.decodeErrors))
	}
	fmt.Printf("phase    %-8s rate=%-8.0f calls=%-8d sessions=%-6d secs=%.3f tail_ms=%.2f lateness_p99_ms=%.3f(n=%d) max_lag_ms=%.2f scored=%d shed=%d dropped=%d rejects=%d alerts=%d judgements=%d checked=%d mismatches=%d cpu_us_per_call=%.3f\n",
		p.kind, p.rate, p.plan.calls, len(p.plan.sessions), p.seconds(), p.tailMs(), p.gen.LatenessP99, p.gen.LatenessN,
		float64(p.gen.MaxLagNs)/1e6, l.scored, l.shed, l.dropped, l.sinkRejects, p.v.alerts, p.v.judgements, p.v.checked,
		p.v.mismatches, float64(p.cpuNs)/1e3/float64(p.plan.calls))
}

func run(workload string, seed int64, seconds int, traced bool, buildDir string) (err error) {
	sp, err := lookupSpec(workload)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	// Every workload makes sure the fixture exists, so the first run in a
	// checkout builds it whichever workload that run measures.
	var fixturePath, fixtureSum string
	if fixturePath, fixtureSum, err = ensureFixture(buildDir); err != nil {
		return err
	}
	fmt.Printf("provenance workload=%s seed=%d seconds=%d trace=%v gomaxprocs=%d go=%s cpu=%q\n",
		sp.name, seed, seconds, traced, goruntime.GOMAXPROCS(0), goruntime.Version(), cpuModel())
	fmt.Printf("provenance fixture=%q sha256=%s\n", fixtureDescription(), fixtureSum)

	prepStart := time.Now()
	wi, err := buildInputs(sp, seed)
	if err != nil {
		return err
	}
	if err := wi.verifyEncoding(); err != nil {
		return fmt.Errorf("wire encoding check: %w", err)
	}
	prepareS := time.Since(prepStart).Seconds()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	gen, ready, err := startGenerator(workload, seed)
	if err != nil {
		return err
	}
	defer func() {
		if gerr := gen.stop(); gerr != nil && err == nil {
			err = fmt.Errorf("generator: %w", gerr)
		}
	}()
	if err := lowerPriority(); err != nil {
		return err
	}
	fmt.Printf("provenance prepare_s=%.3f generator_prepare_s=%.3f\n", prepareS, ready.PrepareSecs)

	c := &coord{sp: sp, wi: wi, gen: gen}
	rs := &runState{attacks: map[string]bool{}}
	mode := sinkDirect
	if sp.shed {
		mode = sinkAdmit
	}
	probeSecs := 0.12 * float64(seconds)
	nominalCalls := int64(sp.nominal * 0.4 * float64(seconds))
	rep := &report{}

	// startFleets performs n daemon-equivalent starts and keeps the last.
	startFleets := func(n int) (*fleet, []float64, setupTimes, error) {
		var f *fleet
		var totals []float64
		var st setupTimes
		for r := 0; r < n; r++ {
			if f != nil {
				if err := f.close(); err != nil {
					return nil, nil, st, err
				}
				// Drop the closed fleet before collecting, so its models
				// are not live while the next start loads its own.
				f = nil
			}
			goruntime.GC()
			st = setupTimes{}
			t := time.Now()
			models, err := loadModels(sp, fixturePath, &st)
			if err != nil {
				return nil, nil, st, err
			}
			ts := time.Now()
			if f, err = startFleet(sp, models, mode); err != nil {
				return nil, nil, st, err
			}
			st.start = time.Since(ts).Seconds()
			st.total = time.Since(t).Seconds()
			totals = append(totals, st.total)
		}
		return f, totals, st, nil
	}

	if !traced {
		f, totals, _, err := startFleets(setupReps)
		if err != nil {
			return err
		}
		c.models = f.models
		err = c.measure(f, rs, rep, probeSecs, nominalCalls)
		c.stray += f.rec.stray.Load()
		if cerr := f.close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		rep.metrics = append([]metric{{name: "setup_s", value: median(totals), unit: "s", samples: len(totals)}}, rep.metrics...)
	} else {
		f, _, st, err := startFleets(1)
		if err != nil {
			return err
		}
		c.models = f.models
		un, err := c.runPhase(f, phaseNominal, planNominal, nominalCalls, sp.nominal, sp.windows)
		c.stray += f.rec.stray.Load()
		if cerr := f.close(); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		rs.add(un, !sp.shed)
		if err := c.measureLayers(rs, rep, un, st, prepareS, nominalCalls); err != nil {
			return err
		}
	}

	rep.add("ledger.unaccounted_calls", float64(rs.unaccount), "count", 0)
	rep.add("ledger.verdict_mismatches", float64(rs.mismatches), "count", 0)

	for _, a := range fusedAttacks() {
		if !rs.attacks[a.Name] {
			rs.problems = append(rs.problems, "attack "+a.Name+" never appeared in the mix")
		}
	}
	if rs.mismatches > 0 {
		rs.problems = append(rs.problems, fmt.Sprintf("%d verdicts differ from the sequential replay", rs.mismatches))
	}
	if rs.unaccount > 0 {
		rs.problems = append(rs.problems, fmt.Sprintf("%d calls unaccounted for", rs.unaccount))
	}
	if !sp.shed && rs.lost > 0 {
		rs.problems = append(rs.problems, fmt.Sprintf("%d calls never scored", rs.lost))
	}
	if m, ok := rep.get("ledger.residual_frac"); ok && m.value > 0.10 {
		rs.problems = append(rs.problems, fmt.Sprintf("stage ledger leaves %.1f%% of verdict latency unexplained", 100*m.value))
	}
	if c.stray > 0 || c.overflow > 0 {
		rs.problems = append(rs.problems, fmt.Sprintf("%d hook calls for unknown sessions, %d beyond capacity", c.stray, c.overflow))
	}

	section := "e2e"
	names := endToEnd
	if traced {
		section, names = "layer", perLayer
	}
	rep.print(os.Stdout, section)
	for _, p := range rs.problems {
		fmt.Println("problem ", p)
	}
	failed := int64(rs.mismatches) + rs.unaccount
	if !sp.shed {
		failed += rs.lost
	}
	return emit(os.Stdout, rep, names, len(rs.problems) == 0, rs.attempted, failed)
}

// measure runs the end-to-end phases on f: half the closed-loop drains,
// the first half of the nominal open-loop phase, the sustained-rate ladder,
// the other half of the drains, then the second nominal half. Splitting the
// drains and the nominal phase spreads each over most of the run, so a slow
// spell of the host moves fewer of their samples.
func (c *coord) measure(f *fleet, rs *runState, rep *report, probeSecs float64, nominalCalls int64) error {
	sp := c.sp
	block := !sp.shed
	// A nominal half in which the generator ran later than the workload's
	// bound (the host stalled it) is invalid: its calls and verdicts are
	// still checked, but its figures are dropped and the half is measured
	// again, up to nominalRetries times in a run.
	var noms []*phaseOut
	retries := 0
	runNominal := func(plan int) error {
		for {
			nom, err := c.runPhase(f, phaseNominal, plan, nominalCalls/2, sp.nominal, sp.windows/2)
			if err != nil {
				return err
			}
			rs.add(nom, block)
			if nom.gen.LatenessN == 0 || nom.gen.LatenessP99 <= sp.latenessMs {
				noms = append(noms, nom)
				return nil
			}
			msg := fmt.Sprintf("nominal phase invalid: generator lateness p99 %.2f ms over the %.0f ms bound", nom.gen.LatenessP99, sp.latenessMs)
			if retries == nominalRetries {
				rs.problems = append(rs.problems, msg)
				noms = append(noms, nom)
				return nil
			}
			fmt.Printf("invalid  %s; measured again\n", msg)
			plan = planRetry + retries
			retries++
		}
	}
	var drains []float64
	runDrains := func(from, to int) error {
		for r := from; r < to; r++ {
			drain, err := c.runPhase(f, phaseDrain, drainPlan(r), int64(sp.drainCalls), 0, 0)
			if err != nil {
				return err
			}
			rs.add(drain, block)
			drains = append(drains, float64(drain.plan.calls)/drain.seconds())
		}
		return nil
	}
	half := (sp.drainReps + 1) / 2
	if err := runDrains(0, half); err != nil {
		return err
	}
	if err := runNominal(planNominal); err != nil {
		return err
	}
	// Which ladder rungs a run probes depends on the host's speed during
	// it, and what the highest one leaves behind (its backlog, and buffers
	// and tables grown for it) sets the process's peak memory from then on,
	// so peak_rss_mb is the peak over the start, the first drains and the
	// first nominal half.
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.add("peak_rss_mb", rss, "MB", 0)

	// Binary search over the fixed ladder for the highest sustained rung.
	lo, hi := -1, len(sp.ladder)
	var best, over *phaseOut
	for probe := 0; hi-lo > 1; probe++ {
		mid := (lo + hi) / 2
		rate := sp.ladder[mid]
		p, err := c.runPhase(f, phaseProbe, planProbe+probe, int64(rate*probeSecs), rate, 0)
		if err != nil {
			return err
		}
		rs.add(p, block)
		verdict := c.judgeProbe(p)
		fmt.Printf("ladder   rung=%.0f verdict=%s p99_ms=%.3f(n=%d) tail_ms=%.2f lateness_p99_ms=%.3f lost=%d shed=%d\n",
			rate, verdict, quantile(p.v.verdictMs, 0.99), len(p.v.verdictMs), p.tailMs(), p.gen.LatenessP99, p.lost(), p.led.shed)
		switch verdict {
		case "pass":
			lo, best = mid, p
		case "fail-p99", "fail-backlog":
			hi, over = mid, p
		default:
			hi, over = mid, nil
		}
	}
	rep.add("sustained_calls_per_s", c.sustained(best, over), "calls/s", 0)

	if err := runDrains(half, sp.drainReps); err != nil {
		return err
	}
	rep.add("drain_calls_per_s", median(drains), "calls/s", len(drains))

	if err := runNominal(planNominal2); err != nil {
		return err
	}

	// The nominal figures pool both halves' windows.
	var verdictWin, alertWin [][]float64
	var cpuWin []float64
	var verdicts, alerts, attackSessions, attackHit int
	var nomCalls, nomLost int64
	seen := map[string][2]int{}
	for _, nom := range noms {
		v := nom.v
		verdictWin = append(verdictWin, v.verdictWin...)
		alertWin = append(alertWin, v.alertWin...)
		cpuWin = append(cpuWin, nom.cpuWin...)
		verdicts += len(v.verdictMs)
		alerts += len(v.alertMs)
		attackSessions += v.attackSessions
		attackHit += v.attackHit
		nomCalls += nom.plan.calls
		nomLost += nom.lost()
		for name, s := range v.attacksSeen {
			t := seen[name]
			seen[name] = [2]int{t[0] + s[0], t[1] + s[1]}
		}
	}
	for _, a := range fusedAttacks() {
		if s, ok := seen[a.Name]; ok {
			fmt.Printf("attack   %-24s sessions=%d alerted=%d\n", a.Name, s[0], s[1])
		}
	}
	rep.add("verdict_p50_ms", windowed(verdictWin, 0.50), "ms", verdicts)
	rep.add("verdict_p90_ms", windowed(verdictWin, 0.90), "ms", verdicts)
	rep.add("verdict_p99_ms", windowed(verdictWin, 0.99), "ms", verdicts)
	rep.add("alert_p90_ms", windowed(alertWin, 0.90), "ms", alerts)
	rep.add("alert_p50_ms", windowed(alertWin, 0.50), "ms", alerts)
	rep.add("alert_p99_ms", windowed(alertWin, 0.99), "ms", alerts)
	rep.add("cpu_us_per_call", median(cpuWin), "us", int(nomCalls))
	// Allocation is counted over every phase of the run: per call it depends
	// on the alert mix, which a single phase samples too thinly on bulk-large.
	var alloc uint64
	var calls int64
	for _, p := range rs.phases {
		alloc += p.alloc
		calls += p.plan.calls
	}
	rep.add("alloc_bytes_per_call", float64(alloc)/float64(calls), "B", int(calls))
	rep.add("failed_call_frac", float64(nomLost)/float64(nomCalls), "ratio", int(nomCalls))
	var recall float64
	if attackSessions > 0 {
		recall = float64(attackHit) / float64(attackSessions)
	}
	rep.add("attack_recall", recall, "ratio", attackSessions)
	return nil
}

// windowed is the median over due-time windows of each window's q-quantile.
func windowed(win [][]float64, q float64) float64 {
	var per []float64
	for _, xs := range win {
		if len(xs) > 0 {
			per = append(per, quantile(xs, q))
		}
	}
	return median(per)
}

// sustained estimates the highest rate meeting the workload's limit: the
// rate at which verdict p99 (or the drain tail, whichever is larger)
// reaches the limit, interpolated log-linearly between the highest passing
// rung and the lowest rung that failed on latency or backlog. Without such
// a failing rung it is the passing rung's achieved rate.
func (c *coord) sustained(pass, over *phaseOut) float64 {
	if pass == nil {
		return 0
	}
	achieved := float64(pass.plan.calls) / pass.seconds()
	if over == nil {
		return achieved
	}
	stress := func(p *phaseOut) float64 {
		return max(quantile(p.v.verdictMs, 0.99), p.tailMs(), 1e-3)
	}
	limit := c.sp.p99LimitMs
	s0, s1 := stress(pass), stress(over)
	if s1 <= s0 || s0 >= limit {
		return achieved
	}
	frac := (math.Log(limit) - math.Log(s0)) / (math.Log(s1) - math.Log(s0))
	return achieved + min(max(frac, 0), 1)*(over.rate-pass.rate)
}

// judgeProbe classifies a ladder rung: "invalid" when the generator itself
// ran late (neither a pass nor a fail of the fleet, but not sustained),
// "pass" when every call was scored, no backlog remained, and verdict p99
// met the workload's limit.
func (c *coord) judgeProbe(p *phaseOut) string {
	sp := c.sp
	lost := p.lost()
	if sp.shed {
		// Risk-aware shedding is the workload's designed outcome; a rung is
		// sustained when everything offered was scored or shed on purpose.
		lost -= int64(p.led.shed)
	}
	switch {
	case p.gen.LatenessN > 0 && p.gen.LatenessP99 > sp.latenessMs:
		return "invalid"
	case lost != 0:
		return "fail-lost"
	case p.tailMs() > sp.p99LimitMs:
		return "fail-backlog"
	case quantile(p.v.verdictMs, 0.99) > sp.p99LimitMs:
		return "fail-p99"
	}
	return "pass"
}

// measureLayers runs the traced fleet (same nominal and drain schedules as
// the untraced run) and the single-thread layer replays.
func (c *coord) measureLayers(rs *runState, rep *report, un *phaseOut, st setupTimes, prepareS float64, nominalCalls int64) error {
	sp := c.sp
	f, err := startFleet(sp, c.models, sinkTimed)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			f.close()
		}
	}()
	tn, err := c.runPhase(f, phaseNominal, planNominal, nominalCalls, sp.nominal, sp.windows)
	if err != nil {
		return err
	}
	rs.add(tn, !sp.shed)
	var highWater int
	var missProb float64
	for _, s := range f.router.StatsAll() {
		highWater = max(highWater, s.Runtime.QueueHighWater)
		missProb = max(missProb, s.Runtime.EstimatedMissProb)
	}
	td, err := c.runPhase(f, phaseDrain, planDrain, int64(sp.drainCalls), 0, 0)
	if err != nil {
		return err
	}
	rs.add(td, !sp.shed)
	routeNs, err := c.routeNs(f)
	if err != nil {
		return err
	}
	c.stray += f.rec.stray.Load()
	closed = true
	if err := f.close(); err != nil {
		return err
	}

	v := tn.v
	decodeNs, err := c.decodeNsPerCall(tn.plan)
	if err != nil {
		return err
	}
	calls := float64(tn.plan.calls)
	rep.add("ingest.decode_ns_per_call", decodeNs, "ns", 0)
	rep.add("ingest.wire_ms_p50", quantile(v.wireMs, 0.50), "ms", len(v.wireMs))
	rep.add("ingest.wire_ms_p99", quantile(v.wireMs, 0.99), "ms", len(v.wireMs))
	rep.add("tenant.observe_us_p50", quantile(v.observeUs, 0.50), "us", len(v.observeUs))
	rep.add("tenant.observe_us_p99", quantile(v.observeUs, 0.99), "us", len(v.observeUs))
	rep.add("tenant.route_ns", routeNs, "ns", 0)
	rep.add("runtime.queue_wait_ms_p50", quantile(v.queueMs, 0.50), "ms", len(v.queueMs))
	rep.add("runtime.queue_wait_ms_p99", quantile(v.queueMs, 0.99), "ms", len(v.queueMs))
	rep.add("runtime.op_us_p50", quantile(v.opUs, 0.50), "us", len(v.opUs))
	rep.add("runtime.op_us_p99", quantile(v.opUs, 0.99), "us", len(v.opUs))
	workers := float64(2 * goruntime.GOMAXPROCS(0))
	rep.add("runtime.worker_busy_frac", float64(td.busyNs)/(workers*td.seconds()*1e9), "ratio", 0)
	rep.add("runtime.queue_high_water", float64(highWater), "count", 0)

	evs := eventsBySession(tn.plan)
	hmmNs, hmmFlush, hmmFlushes := c.detectNs(tn.plan, evs, roleHMM)
	fusedNs, fusedFlush, fusedFlushes := c.detectNs(tn.plan, evs, roleFused)
	rep.add("detect.ns_per_call.hmm", hmmNs, "ns", 0)
	rep.add("detect.ns_per_call.fused", fusedNs, "ns", 0)
	rep.add("detect.flush_ns", (hmmFlush*float64(hmmFlushes)+fusedFlush*float64(fusedFlushes))/float64(max(1, hmmFlushes+fusedFlushes)), "ns", hmmFlushes+fusedFlushes)
	wHMM, nHMM := c.windowNs(tn.plan, roleHMM)
	wFused, nFused := c.windowNs(tn.plan, roleFused)
	fmt.Printf("provenance states.hmm=%d states.fused=%d\n", nHMM, nFused)
	rep.add("hmm.window_ns.hmm", wHMM, "ns", 0)
	rep.add("hmm.window_ns.fused", wFused, "ns", 0)
	qNs, qAlloc := c.sqlQueryNs(tn.plan)
	rep.add("sqlchan.query_ns", qNs, "ns", 0)
	rep.add("sqlchan.alloc_bytes_per_query", qAlloc, "B", 0)

	rep.add("shed.shed_frac", float64(tn.led.shed)/calls, "ratio", int(tn.plan.calls))
	rep.add("shed.miss_prob", missProb, "ratio", 0)
	rep.add("sink.delivery_ms_p50", quantile(v.deliveryMs, 0.50), "ms", len(v.deliveryMs))
	rep.add("sink.delivery_ms_p99", quantile(v.deliveryMs, 0.99), "ms", len(v.deliveryMs))
	rep.add("sink.dropped", float64(tn.led.sinkDropped), "count", 0)
	rep.add("obsv.decisions_per_kcall", 1000*float64(tn.led.decisions)/calls, "1/kcall", 0)

	rep.add("profile.collect_s", st.collect, "s", 0)
	rep.add("profile.train_hmm_s", st.trainHMM, "s", 0)
	rep.add("profile.train_sql_s", st.trainSQL, "s", 0)
	rep.add("profile.load_s", st.load, "s", 0)
	rep.add("setup.start_s", st.start, "s", 0)

	rep.add("loadgen.lateness_p99_ms", tn.gen.LatenessP99, "ms", tn.gen.LatenessN)
	rep.add("loadgen.write_blocked_frac", float64(tn.gen.BlockedNs)/(tn.seconds()*1e9), "ratio", 0)
	rep.add("loadgen.prepare_s", prepareS, "s", 0)

	residual := 0.0
	if v.latencyNs > 0 {
		residual = v.residualNs / v.latencyNs
	}
	rep.add("ledger.residual_frac", residual, "ratio", len(v.verdictMs))
	cpuUn := float64(un.cpuNs) / float64(un.plan.calls)
	cpuTr := float64(tn.cpuNs) / float64(tn.plan.calls)
	rep.add("ledger.trace_overhead_frac", cpuTr/cpuUn-1, "ratio", 0)
	rep.add("ledger.failed_call_frac", float64(un.lost())/float64(un.plan.calls), "ratio", int(un.plan.calls))
	return nil
}

// resetPeakRSS returns the freed heap to the OS and restarts the kernel's
// peak-RSS mark (VmHWM), so peak_rss_mb leaves out the benchmark's own
// input preparation.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the peak resident set size since resetPeakRSS, in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// cpuModel reads the processor model for the provenance line.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
