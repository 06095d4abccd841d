package main

// The load generator runs as a separate process (the benchmark binary
// re-executed with -gen), so its CPU time and allocations stay out of the
// server's getrusage and MemStats figures. It rebuilds the workload inputs
// from the seed, then serves phase commands over stdin/stdout, one JSON
// object per line.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"
)

type genCmd struct {
	Cmd   string  `json:"cmd"`
	Phase int     `json:"phase,omitempty"`
	Calls int64   `json:"calls,omitempty"`
	Addr  string  `json:"addr,omitempty"`
	T0    int64   `json:"t0,omitempty"`   // wall-clock ns of the first due time
	Rate  float64 `json:"rate,omitempty"` // calls/s; 0 = closed loop
}

// genResult is the generator's account of one phase, on its own clocks
// (wall-clock ns, shared with the server process on the same host).
type genResult struct {
	Events      int     `json:"events"`
	Calls       int64   `json:"calls"`
	FirstByte   int64   `json:"first_byte"`
	BlockedNs   int64   `json:"blocked_ns"`
	MaxLagNs    int64   `json:"max_lag_ns"`
	LatenessP99 float64 `json:"lateness_p99_ms"`
	LatenessN   int     `json:"lateness_n"`
	Err         string  `json:"err,omitempty"`
	PrepareSecs float64 `json:"prepare_s,omitempty"`
}

func wallNs() int64 { return time.Now().UnixNano() }

// runGenerator is the -gen entry point.
func runGenerator(workload string, seed int64) error {
	sp, err := lookupSpec(workload)
	if err != nil {
		return err
	}
	start := time.Now()
	wi, err := buildInputs(sp, seed)
	if err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(genResult{PrepareSecs: time.Since(start).Seconds()}); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	var pp *phasePlan
	for in.Scan() {
		var cmd genCmd
		if err := json.Unmarshal(in.Bytes(), &cmd); err != nil {
			return fmt.Errorf("generator command: %w", err)
		}
		var res genResult
		switch cmd.Cmd {
		case "plan":
			pp = wi.plan(cmd.Phase, cmd.Calls)
			res = genResult{Events: len(pp.events), Calls: pp.calls}
		case "go":
			if pp == nil || pp.phase != cmd.Phase {
				return errors.New("generator: go before plan")
			}
			res = drive(wi, pp, cmd)
		default:
			return fmt.Errorf("generator: unknown command %q", cmd.Cmd)
		}
		if err := out.Encode(res); err != nil {
			return err
		}
	}
	return in.Err()
}

// connStats is one connection writer's account.
type connStats struct {
	firstByte, blocked, maxLag int64
	late                       []int64
	err                        error
}

// drive sends one phase over conns TCP connections, one writer goroutine
// each, and returns once every connection is written and closed.
func drive(wi *workloadInput, pp *phasePlan, cmd genCmd) genResult {
	per := make([][]int32, conns)
	for i := range pp.events {
		c := pp.sessions[pp.events[i].sess].conn
		per[c] = append(per[c], int32(i))
	}
	cs := make([]connStats, conns)
	dialed := make([]net.Conn, conns)
	for c := range dialed {
		conn, err := net.Dial("tcp", cmd.Addr)
		if err != nil {
			for _, d := range dialed[:c] {
				d.Close()
			}
			return genResult{Err: err.Error()}
		}
		dialed[c] = conn
	}
	var wg sync.WaitGroup
	for c := range dialed {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			writeConn(dialed[c], &encoder{wi: wi, phase: pp.phase}, pp, per[c], cmd.T0, cmd.Rate, &cs[c])
			if err := dialed[c].Close(); err != nil && cs[c].err == nil {
				cs[c].err = err
			}
		}(c)
	}
	wg.Wait()
	res := genResult{Events: len(pp.events), Calls: pp.calls}
	var late []int64
	for i := range cs {
		s := &cs[i]
		if s.err != nil && res.Err == "" {
			res.Err = s.err.Error()
		}
		if res.FirstByte == 0 || (s.firstByte != 0 && s.firstByte < res.FirstByte) {
			res.FirstByte = s.firstByte
		}
		res.BlockedNs += s.blocked
		res.MaxLagNs = max(res.MaxLagNs, s.maxLag)
		late = append(late, s.late...)
	}
	res.BlockedNs /= conns
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	res.LatenessN = len(late)
	res.LatenessP99 = float64(quantileI64(late, 0.99)) / 1e6
	return res
}

// writeBatch caps one Write; when the writer is behind schedule it sends
// everything due in chunks of this size.
const writeBatch = 64 << 10

// writeConn writes one connection's events. Open loop (rate > 0): each event
// is sent at or after t0 + its due offset, whatever the server does, and
// every sleep's overshoot is a lateness sample. Closed loop: as fast as TCP
// backpressure allows.
func writeConn(conn net.Conn, en *encoder, pp *phasePlan, idx []int32, t0 int64, rate float64, st *connStats) {
	buf := make([]byte, 0, writeBatch+(256<<10))
	st.late = make([]int64, 0, len(idx))
	for i := 0; i < len(idx); {
		now := wallNs()
		if rate > 0 {
			due := t0 + dueNs(pp.events[idx[i]].before, rate)
			if due > now {
				time.Sleep(time.Duration(due - now))
				now = wallNs()
				st.late = append(st.late, now-due)
			}
			st.maxLag = max(st.maxLag, now-due)
		}
		buf = buf[:0]
		for i < len(idx) && len(buf) < writeBatch {
			e := &pp.events[idx[i]]
			if rate > 0 && t0+dueNs(e.before, rate) > now {
				break
			}
			buf = en.appendEvent(buf, pp, e)
			i++
		}
		ws := wallNs()
		if st.firstByte == 0 {
			st.firstByte = ws
		}
		_, err := conn.Write(buf)
		st.blocked += wallNs() - ws
		if err != nil {
			st.err = err
			return
		}
	}
}
