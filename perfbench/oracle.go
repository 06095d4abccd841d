package main

// The verdict oracle replays each session's admitted calls through a
// sequential detect.Engine configured like the serving shard, compares every
// judgement (score bits and flag) and alert with what the fleet produced,
// and attributes each verdict to the wire event it answers, which fixes its
// latency start: the due time of the event carrying the window's closing
// call, or of the close event for a window judged at flush.

import (
	"fmt"
	"math"

	"adprom/internal/collector"
	"adprom/internal/detect"
	"adprom/internal/hmm"
	"adprom/internal/ingest"
	"adprom/internal/sqlchan"
)

// refJudge and refAlert are the reference verdicts, each tagged with the
// session event (ev) whose op produced it.
type refJudge struct {
	seq, ev int32
	flagged bool
	score   float64
}

type refAlert struct {
	a  alertRec
	ev int32
}

type refResult struct {
	judge  []refJudge
	alerts []refAlert
}

// chunk is one session event as the engine saw it: an observe of calls
// [lo, lo+k), the admitted prefix of a wire event that carried n calls, or
// a flush or close.
type chunk struct {
	lo, k, n int32
	kind     ingest.Kind
}

// newRefEngine builds an engine the way the runtime equips a session's.
func (c *coord) newRefEngine(role int) *detect.Engine {
	m := c.models[role]
	e := detect.NewEngine(m.prof)
	e.SetScorerMode(hmm.ScorerExact)
	if m.sqlProf != nil {
		e.SetSQLChannel(sqlchan.NewScorer(m.sqlProf), detect.FusionConfig{})
	}
	return e
}

// reference replays one session's chunks (ending with its close).
func (c *coord) reference(s *sessInfo, chunks []chunk) *refResult {
	ti := c.wi.tenants[s.role]
	e := c.newRefEngine(int(s.role))
	res := &refResult{}
	var ev int32
	e.SetJudgeHook(func(seq int, score float64, flagged bool) error {
		res.judge = append(res.judge, refJudge{seq: int32(seq), ev: ev, flagged: flagged, score: score})
		return nil
	})
	var buf []collector.Call
	for k, ch := range chunks {
		ev = int32(k)
		if ch.kind != ingest.KindObserve {
			// The runtime's flush and close ops: judge the short window, then
			// (flush) reset it so the next run starts clean.
			before := len(e.Alerts())
			hist := e.Flush()
			for i := before; i < len(hist); i++ {
				res.alerts = append(res.alerts, refAlert{a: summarize(0, &hist[i], 0), ev: ev})
			}
			if ch.kind == ingest.KindFlush {
				e.ResetWindow()
			}
			continue
		}
		if ch.k == 0 {
			continue
		}
		buf = buf[:0]
		for i := int32(0); i < ch.k; i++ {
			buf = append(buf, ti.calls[ti.callIndex(s, ch.lo+i)])
		}
		var alerts []detect.Alert
		if ch.n == 1 {
			alerts = e.Observe(buf[0])
		} else {
			alerts = e.ObserveBatch(buf)
		}
		for i := range alerts {
			res.alerts = append(res.alerts, refAlert{a: summarize(0, &alerts[i], 0), ev: ev})
		}
	}
	return res
}

type refKey struct {
	role    uint8
	tmpl, n int32
}

// verdicts is the oracle's and the latency attribution's account of a phase.
type verdicts struct {
	sessions, checked         int
	judgements, alerts        int
	mismatches                int
	mismatchNote              string // the first differing session
	attackSessions, attackHit int
	attacksSeen               map[string][2]int // attack name -> sessions sent, sessions alerted

	verdictMs, alertMs []float64
	// verdictWin and alertWin split the same samples by due-time window.
	verdictWin, alertWin [][]float64

	// Traced phases: per-stage distributions and the stage ledger.
	wireMs, observeUs, queueMs, opUs, deliveryMs []float64
	latencyNs, residualNs                        float64
}

func sameAlert(a, b *alertRec) bool {
	return a.seq == b.seq && a.flag == b.flag && a.chans == b.chans && a.hash == b.hash &&
		math.Float64bits(a.score) == math.Float64bits(b.score) &&
		math.Float64bits(a.thr) == math.Float64bits(b.thr) &&
		math.Float64bits(a.sqlScore) == math.Float64bits(b.sqlScore) &&
		math.Float64bits(a.sqlThr) == math.Float64bits(b.sqlThr) &&
		math.Float64bits(a.fused) == math.Float64bits(b.fused)
}

// oracleSession reports whether session si of a phase is replayed: every
// session, except that bulk-large keeps a seeded 1-in-oracleSample share of
// its HMM-only long sessions.
func (c *coord) oracleSession(pp *phasePlan, si int) bool {
	s := &pp.sessions[si]
	if c.sp.oracleSample <= 1 || s.role != roleHMM {
		return true
	}
	return (int64(si)+c.wi.seed)%int64(c.sp.oracleSample) == 0
}

// check runs the oracle over a finished phase and attributes latencies.
func (c *coord) check(pr *phaseRec, out *phaseOut) *verdicts {
	pp := pr.plan
	v := &verdicts{sessions: len(pp.sessions), attacksSeen: map[string][2]int{}}
	// Alerts per session, preserving delivery order (one dispatcher per
	// tenant delivers a session's alerts in the order they were raised).
	var bySess [][]int32
	bySess = make([][]int32, len(pp.sessions))
	for role := range pr.alerts {
		for i := range pr.alerts[role] {
			s := pr.alerts[role][i].sess
			bySess[s] = append(bySess[s], int32(role)<<28|int32(i))
		}
	}
	alertAt := func(code int32) *alertRec { return &pr.alerts[code>>28][code&(1<<28-1)] }
	if out.windows > 0 {
		v.verdictWin = make([][]float64, out.windows)
		v.alertWin = make([][]float64, out.windows)
	}
	cache := map[refKey]*refResult{}
	var chunks []chunk
	var cum []int32
	for si := range pp.sessions {
		s := &pp.sessions[si]
		rs := &pr.sess[si]
		ti := c.wi.tenants[s.role]
		judges := pr.judge[rs.jStart : rs.jStart+rs.jCount]
		v.judgements += len(judges)
		v.alerts += len(bySess[si])

		chunks = chunks[:0]
		cum = cum[:0]
		full := true
		var admittedSoFar int32
		for k := int32(0); k < rs.evCount; k++ {
			e := &pp.events[pr.evIndex[rs.evStart+k]]
			adm := e.n
			if pr.evs != nil && pr.evs[rs.evStart+k].admitted >= 0 {
				adm = pr.evs[rs.evStart+k].admitted
			}
			if adm != e.n {
				full = false
			}
			chunks = append(chunks, chunk{lo: e.lo, k: adm, n: e.n, kind: e.kind})
			cum = append(cum, admittedSoFar)
			admittedSoFar += adm
		}

		var ref *refResult
		if c.oracleSession(pp, si) {
			v.checked++
			if !s.long && full {
				key := refKey{role: s.role, tmpl: s.tmpl, n: s.n}
				if ref = cache[key]; ref == nil {
					ref = c.reference(s, chunks)
					cache[key] = ref
				}
			} else {
				ref = c.reference(s, chunks)
			}
			if bad := compareSession(judges, bySess[si], alertAt, ref); bad > 0 {
				v.mismatches += bad
				if v.mismatchNote == "" {
					v.mismatchNote = fmt.Sprintf("session %s (tenant %s, %d calls, long=%v): %d judgements (reference %d), %d alerts (reference %d)",
						sessionID(pp.phase, int32(si)), ti.name, s.n, s.long, len(judges), len(ref.judge), len(bySess[si]), len(ref.alerts))
				}
			}
		}
		if s.attack {
			name := ti.tmpls[s.tmpl].attack
			seen := v.attacksSeen[name]
			seen[0]++
			v.attackSessions++
			if len(bySess[si]) > 0 {
				v.attackHit++
				seen[1]++
			}
			v.attacksSeen[name] = seen
		}
		if out.rate <= 0 {
			continue
		}

		// origin is the session event a verdict answers: the one the
		// reference replay saw produce it, or, for sessions the oracle
		// skips, the observe carrying call seq — unless seq closes a run
		// shorter than the window, whose only judgement is made by the
		// flush or close ending the run.
		w := int32(c.models[s.role].prof.WindowLen)
		origin := func(seq int32, refEv int32) int32 {
			if refEv >= 0 {
				return refEv
			}
			k := int32(0)
			for k+1 < rs.evCount && (chunks[k].kind != ingest.KindObserve || cum[k]+chunks[k].k <= seq) {
				k++
			}
			end := k
			for end < rs.evCount && chunks[end].kind == ingest.KindObserve {
				end++
			}
			if end < rs.evCount && seq == cum[end]-1 {
				start := end
				for start > 0 && chunks[start-1].kind == ingest.KindObserve {
					start--
				}
				if cum[end]-cum[start] < w {
					return end
				}
			}
			return k
		}
		due := func(k int32) int64 {
			return out.t0 + dueNs(pp.events[pr.evIndex[rs.evStart+k]].before, out.rate)
		}
		for i := range judges {
			j := &judges[i]
			refEv := int32(-1)
			if ref != nil && i < len(ref.judge) {
				refEv = ref.judge[i].ev
			}
			k := origin(j.seq, refEv)
			d := due(k)
			lat := j.t - d
			v.verdictMs = append(v.verdictMs, float64(lat)/1e6)
			if out.windows > 0 {
				w := out.window(pp.events[pr.evIndex[rs.evStart+k]].before)
				v.verdictWin[w] = append(v.verdictWin[w], float64(lat)/1e6)
			}
			if out.traced {
				// Stage ledger. Wire (due → Sink entry), observe (→ the
				// Router's return, or the op's start if that came first),
				// queue (→ op start) and op (→ this judgement) are
				// contiguous, so they add up to the latency exactly when
				// the judgement came from the op of the event it answers
				// and every stamp is in order; the residual is the latency
				// of the verdicts for which that does not hold.
				ev := &pr.evs[rs.evStart+k]
				v.latencyNs += float64(lat)
				if j.op != k || ev.tIn < d || ev.tStart < ev.tIn || j.t < ev.tStart || min(ev.tRet, ev.tStart) < ev.tIn {
					v.residualNs += math.Abs(float64(lat))
				}
			}
		}
		for n, code := range bySess[si] {
			a := alertAt(code)
			refEv := int32(-1)
			if ref != nil && n < len(ref.alerts) {
				refEv = ref.alerts[n].ev
			}
			ak := origin(a.seq, refEv)
			v.alertMs = append(v.alertMs, float64(a.t-due(ak))/1e6)
			if out.windows > 0 {
				w := out.window(pp.events[pr.evIndex[rs.evStart+ak]].before)
				v.alertWin[w] = append(v.alertWin[w], float64(a.t-due(ak))/1e6)
			}
			if out.traced {
				// Sink delivery: the flagged HMM judgement of this window to
				// the alert's receipt.
				for i := len(judges) - 1; i >= 0; i-- {
					if judges[i].seq == a.seq && judges[i].flagged {
						v.deliveryMs = append(v.deliveryMs, float64(a.t-judges[i].t)/1e6)
						break
					}
				}
			}
		}
		if out.traced {
			for k := int32(0); k < rs.evCount; k++ {
				ev := &pr.evs[rs.evStart+k]
				if ev.tIn == 0 {
					continue
				}
				v.wireMs = append(v.wireMs, float64(ev.tIn-due(k))/1e6)
				// Observes return once enqueued; flush and close return
				// only after their op ran, so their queue wait starts at
				// arrival.
				enqueued := ev.tIn
				if chunks[k].kind == ingest.KindObserve {
					v.observeUs = append(v.observeUs, float64(ev.tRet-ev.tIn)/1e3)
					enqueued = ev.tRet
				}
				if ev.tStart > 0 {
					v.queueMs = append(v.queueMs, float64(max(0, ev.tStart-enqueued))/1e6)
					if ev.tJudged > 0 {
						v.opUs = append(v.opUs, float64(ev.tJudged-ev.tStart)/1e3)
					}
				}
			}
		}
	}
	return v
}

// compareSession counts the judgements and alerts that differ from the
// reference, including any the fleet produced too many or too few of.
func compareSession(judges []judgeRec, alerts []int32, alertAt func(int32) *alertRec, ref *refResult) int {
	bad := abs(len(judges) - len(ref.judge))
	for i := 0; i < min(len(judges), len(ref.judge)); i++ {
		a, b := &judges[i], &ref.judge[i]
		if a.seq != b.seq || a.flagged != b.flagged || math.Float64bits(a.score) != math.Float64bits(b.score) {
			bad++
		}
	}
	bad += abs(len(alerts) - len(ref.alerts))
	for i := 0; i < min(len(alerts), len(ref.alerts)); i++ {
		if !sameAlert(alertAt(alerts[i]), &ref.alerts[i].a) {
			bad++
		}
	}
	return bad
}

func abs[T int | int64](x T) T {
	if x < 0 {
		return -x
	}
	return x
}
