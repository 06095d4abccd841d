package main

// Single-thread replays of one layer at a time, each timing calls into that
// layer's public functions on the workload's own inputs. They run after the
// traced phases, outside every timed phase.

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"time"

	"adprom/internal/collector"
	"adprom/internal/ingest"
	"adprom/internal/sqlchan"
)

// layerBudget is how long each replay loops.
const layerBudget = 250 * time.Millisecond

// decodeNsPerCall decodes the phase's exact wire bytes (up to 8 MiB of them)
// with the workload's codec.
func (c *coord) decodeNsPerCall(pp *phasePlan) (float64, error) {
	en := &encoder{wi: c.wi, phase: pp.phase}
	var buf []byte
	var calls int64
	for i := range pp.events {
		if len(buf) > 8<<20 {
			break
		}
		buf = en.appendEvent(buf, pp, &pp.events[i])
		calls += int64(pp.events[i].n)
	}
	var total time.Duration
	var decoded int64
	for total < layerBudget {
		r := bytes.NewReader(buf)
		var next func() (ingest.Event, error)
		if c.sp.codec == codecNDJSON {
			next = ingest.NewNDJSONDecoder(r, 0).Next
		} else {
			next = ingest.NewFrameDecoder(r, 0).Next
		}
		start := time.Now()
		var n int64
		for {
			e, err := next()
			if err != nil {
				if r.Len() == 0 {
					break
				}
				return 0, fmt.Errorf("decode replay: %w", err)
			}
			n += int64(len(e.Calls))
		}
		total += time.Since(start)
		if n != calls {
			return 0, fmt.Errorf("decode replay: %d calls decoded, %d encoded", n, calls)
		}
		decoded += n
	}
	return float64(total.Nanoseconds()) / float64(decoded), nil
}

// routeNs times Router.Session on resident sessions of both tenants.
func (c *coord) routeNs(f *fleet) (float64, error) {
	const resident = 512
	ids := make([][2]string, resident)
	for i := range ids {
		ids[i] = [2]string{c.models[i%2].name, fmt.Sprintf("route-%04d", i)}
		if _, err := f.router.Session(ids[i][0], ids[i][1]); err != nil {
			return 0, err
		}
	}
	var total time.Duration
	var n int
	for total < layerBudget {
		start := time.Now()
		for r := 0; r < 64; r++ {
			for i := range ids {
				if _, err := f.router.Session(ids[i][0], ids[i][1]); err != nil {
					return 0, err
				}
			}
		}
		total += time.Since(start)
		n += 64 * resident
	}
	return float64(total.Nanoseconds()) / float64(n), nil
}

// sessionChunks lists one session's wire chunks, all admitted.
func sessionChunks(pp *phasePlan, evs [][]int32, si int) []chunk {
	var out []chunk
	for _, ei := range evs[si] {
		e := &pp.events[ei]
		out = append(out, chunk{lo: e.lo, k: e.n, n: e.n, kind: e.kind})
	}
	return out
}

func eventsBySession(pp *phasePlan) [][]int32 {
	evs := make([][]int32, len(pp.sessions))
	for i := range pp.events {
		s := pp.events[i].sess
		evs[s] = append(evs[s], int32(i))
	}
	return evs
}

// detectNs replays the role's sessions through fresh engines configured like
// the shard's, timing the observe calls and the flushes separately.
func (c *coord) detectNs(pp *phasePlan, evs [][]int32, role int) (perCall, perFlush float64, flushes int) {
	ti := c.wi.tenants[role]
	var obs, fl time.Duration
	var calls int64
	var buf []collector.Call
	for si := 0; obs+fl < layerBudget; si = (si + 1) % len(pp.sessions) {
		s := &pp.sessions[si]
		if int(s.role) != role {
			continue
		}
		e := c.newRefEngine(role)
		for _, ch := range sessionChunks(pp, evs, si) {
			if obs+fl >= layerBudget {
				break
			}
			if ch.kind != ingest.KindObserve {
				start := time.Now()
				e.Flush()
				if ch.kind == ingest.KindFlush {
					e.ResetWindow()
				}
				fl += time.Since(start)
				flushes++
				continue
			}
			buf = buf[:0]
			for i := int32(0); i < ch.k; i++ {
				buf = append(buf, ti.calls[ti.callIndex(s, ch.lo+i)])
			}
			start := time.Now()
			if ch.n == 1 {
				e.Observe(buf[0])
			} else {
				e.ObserveBatch(buf)
			}
			obs += time.Since(start)
			calls += int64(ch.k)
		}
	}
	return float64(obs.Nanoseconds()) / float64(calls), float64(fl.Nanoseconds()) / float64(max(flushes, 1)), flushes
}

// windowNs scores the role's full-length windows with the profile's shared
// exact scorer (batch LogProb), one window per call.
func (c *coord) windowNs(pp *phasePlan, role int) (float64, int) {
	ti := c.wi.tenants[role]
	p := c.models[role].prof
	sc := p.Scorer()
	w := int32(p.WindowLen)
	var windows [][]int
	for si := range pp.sessions {
		s := &pp.sessions[si]
		if int(s.role) != role || s.n < w {
			continue
		}
		for lo := int32(0); lo+w <= s.n && len(windows) < 4096; lo += w {
			obs := make([]int, w)
			for i := range obs {
				obs[i] = p.SymbolOf(ti.calls[ti.callIndex(s, lo+int32(i))].Label)
			}
			windows = append(windows, obs)
		}
	}
	if len(windows) == 0 {
		return 0, sc.N()
	}
	var total time.Duration
	var n int
	for total < layerBudget {
		start := time.Now()
		for _, obs := range windows {
			if _, err := sc.LogProb(obs); err != nil {
				return 0, sc.N()
			}
			n++
			if n%256 == 0 && time.Since(start) > layerBudget {
				break
			}
		}
		total += time.Since(start)
	}
	return float64(total.Nanoseconds()) / float64(n), sc.N()
}

// sqlQueryNs feeds the fused tenant's query stream through one SQL-channel
// scorer per session, measuring time and heap allocation per query.
func (c *coord) sqlQueryNs(pp *phasePlan) (perQuery, allocPerQuery float64) {
	ti := c.wi.tenants[roleFused]
	prof := c.models[roleFused].sqlProf
	type q struct {
		sql   string
		rows  int
		reset bool // first query of a session
	}
	var qs []q
	for si := range pp.sessions {
		s := &pp.sessions[si]
		if s.role != roleFused {
			continue
		}
		first := true
		for i := int32(0); i < s.n && len(qs) < 1<<16; i++ {
			call := &ti.calls[ti.callIndex(s, i)]
			if call.SQL != "" {
				qs = append(qs, q{call.SQL, call.Rows, first})
				first = false
			}
		}
	}
	if len(qs) == 0 {
		return 0, 0
	}
	sc := sqlchan.NewScorer(prof)
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	var total time.Duration
	var n int
	for total < layerBudget {
		start := time.Now()
		for i := range qs {
			if qs[i].reset {
				sc.Reset()
			}
			sc.Observe(qs[i].sql, qs[i].rows)
		}
		total += time.Since(start)
		n += len(qs)
	}
	goruntime.ReadMemStats(&ms1)
	return float64(total.Nanoseconds()) / float64(n), float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
}
