package main

// Running one phase: the generator drives the fleet over TCP while the
// coordinator sleeps; at quiescence the coordinator reads the call ledger,
// CPU and allocation deltas, and hands the recorded verdicts to the oracle.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	goruntime "runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// genProc is the generator child process.
type genProc struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func startGenerator(workload string, seed int64) (*genProc, genResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, genResult{}, err
	}
	cmd := exec.Command(exe, "-gen", "-workload", workload, "-seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, genResult{}, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, genResult{}, err
	}
	if err := cmd.Start(); err != nil {
		return nil, genResult{}, err
	}
	g := &genProc{cmd: cmd, in: in, out: bufio.NewScanner(outPipe)}
	ready, err := g.recv()
	if err != nil {
		g.stop()
		return nil, genResult{}, fmt.Errorf("generator start: %w", err)
	}
	return g, ready, nil
}

// serverNice is the nice value the fleet's process runs at once the
// generator has started at the default priority.
const serverNice = 5

// lowerPriority lowers the scheduling priority of every thread of this
// process (threads started later inherit it). On a 2-vCPU host the fleet's
// bursts (GC, a worker's long op) would otherwise delay the generator's
// wake-ups, and every late send inflates the latency measured from its due
// time; with the generator ahead in the queue the open-loop schedule holds.
func lowerPriority() error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, tid, serverNice); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("lowering thread %d's priority: %w", tid, err)
		}
	}
	return nil
}

func (g *genProc) send(c genCmd) error {
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	_, err = g.in.Write(append(b, '\n'))
	return err
}

func (g *genProc) recv() (genResult, error) {
	if !g.out.Scan() {
		if err := g.out.Err(); err != nil {
			return genResult{}, err
		}
		return genResult{}, errors.New("generator exited")
	}
	var r genResult
	if err := json.Unmarshal(g.out.Bytes(), &r); err != nil {
		return r, err
	}
	if r.Err != "" {
		return r, errors.New("generator: " + r.Err)
	}
	return r, nil
}

// stop closes the command pipe, which ends the generator, and waits for it;
// a generator that does not exit promptly is killed.
func (g *genProc) stop() error {
	g.in.Close()
	done := make(chan error, 1)
	go func() { done <- g.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		g.cmd.Process.Kill()
		return <-done
	}
}

// phaseKind names what a phase measures.
type phaseKind string

const (
	phaseDrain   phaseKind = "drain"
	phaseProbe   phaseKind = "probe"
	phaseNominal phaseKind = "nominal"
)

// phaseOut is everything one phase measured.
type phaseOut struct {
	kind   phaseKind
	traced bool
	rate   float64 // calls/s; 0 = closed loop
	plan   *phasePlan
	gen    genResult
	t0     int64 // first due time (open loop) or first byte written (closed)
	tEnd   int64 // every call accounted for
	led    ledger
	cpuNs  int64
	alloc  uint64
	busyNs int64
	// windows > 0 splits an open-loop phase into equal due-time windows;
	// cpuWin is each window's CPU time per call (µs).
	windows int
	cpuWin  []float64

	v *verdicts
}

// windowNs is the due-time length of one window.
func (p *phaseOut) windowNs() int64 { return dueNs(p.plan.calls, p.rate) / int64(p.windows) }

// window maps a call count before an event to its due-time window.
func (p *phaseOut) window(before int64) int {
	return min(int(before*int64(p.windows)/max(p.plan.calls, 1)), p.windows-1)
}

func (p *phaseOut) seconds() float64 { return float64(p.tEnd-p.t0) / 1e9 }

// tailMs is how long after the last due time the fleet took to account for
// every call: small when the fleet keeps up, and growing with the backlog
// when it does not.
func (p *phaseOut) tailMs() float64 {
	if p.rate <= 0 {
		return 0
	}
	last := p.t0 + dueNs(p.plan.calls, p.rate)
	return float64(p.tEnd-last) / 1e6
}

func (p *phaseOut) lost() int64 { return p.plan.calls - int64(p.led.scored) }

type coord struct {
	sp     *spec
	wi     *workloadInput
	gen    *genProc
	models [2]*tenantModel
	// stray counts hook calls for sessions no phase planned; overflow counts
	// judgements beyond a session's capacity. Both must stay 0.
	stray, overflow int64
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runPhase plans phase p (at least nCalls calls), sends it at rate calls/s
// (0 = closed loop) and waits until the fleet has accounted for every call
// and delivered every alert.
//
// An open-loop phase with windows > 0 is also cut into that many equal
// windows of due time; its CPU and verdict-latency figures are reported per
// window, so a short burst of interference from outside the benchmark moves
// one window's value rather than the phase's.
func (c *coord) runPhase(f *fleet, kind phaseKind, p int, nCalls int64, rate float64, windows int) (*phaseOut, error) {
	if err := c.gen.send(genCmd{Cmd: "plan", Phase: p, Calls: nCalls}); err != nil {
		return nil, err
	}
	pp := c.wi.plan(p, nCalls)
	pr := newPhaseRec(pp, f.rec.admit, [2]int32{int32(c.models[0].prof.WindowLen), int32(c.models[1].prof.WindowLen)})
	ack, err := c.gen.recv()
	if err != nil {
		return nil, err
	}
	if ack.Calls != pp.calls || ack.Events != len(pp.events) {
		return nil, fmt.Errorf("generator planned %d events/%d calls, coordinator %d/%d",
			ack.Events, ack.Calls, len(pp.events), pp.calls)
	}
	f.rec.cur.Store(pr)
	defer f.rec.cur.Store(nil)
	goruntime.GC()
	out := &phaseOut{kind: kind, traced: f.rec.timed, rate: rate, plan: pp}
	if rate > 0 {
		out.windows = windows
	}
	before := f.ledger()
	busy0 := f.busyNs()
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	cmd := genCmd{Cmd: "go", Phase: p, Addr: f.addr, Rate: rate}
	if rate > 0 {
		cmd.T0 = wallNs() + int64(20*time.Millisecond)
	}
	if err := c.gen.send(cmd); err != nil {
		return nil, err
	}
	if rate > 0 {
		time.Sleep(time.Duration(cmd.T0 - wallNs()))
	}
	cpu0 := cpuNs()
	// The window sampler reads process CPU time at each inner window
	// boundary; it sleeps in between and exits after the last boundary or
	// when the phase ends early.
	cpuAt := make([]int64, out.windows+1)
	cpuAt[0] = cpu0
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if out.windows > 1 {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			for k := 1; k < out.windows; k++ {
				at := cmd.T0 + out.windowNs()*int64(k)
				select {
				case <-time.After(time.Duration(at - wallNs())):
					cpuAt[k] = cpuNs()
				case <-stop:
					return
				}
			}
		}()
	}
	out.gen, err = c.gen.recv()
	if err != nil {
		close(stop)
		sampler.Wait()
		return nil, err
	}
	out.t0 = cmd.T0
	if rate == 0 {
		out.t0 = out.gen.FirstByte
	}
	// Quiescence: both connections accepted and finished, every decoded
	// call scored, dropped or shed, every raised alert delivered or dropped.
	deadline := time.Now().Add(60 * time.Second)
	for {
		l := f.ledger().minus(before)
		accounted := l.scored + l.dropped + l.shed
		delivered := uint64(pr.alertN[0].Load()+pr.alertN[1].Load()) + l.sinkDropped
		if l.accepted >= conns && l.activeConns == 0 &&
			accounted == l.serverCalls && delivered >= l.alerts {
			out.tEnd = wallNs()
			out.led = l
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			sampler.Wait()
			return nil, fmt.Errorf("%s phase: no quiescence after 60s (ledger %+v)", kind, l)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	sampler.Wait()
	cpuAt[out.windows] = cpuNs()
	out.cpuNs = cpuAt[out.windows] - cpu0
	if out.windows > 1 {
		calls := make([]int64, out.windows)
		for i := range pp.events {
			calls[out.window(pp.events[i].before)] += int64(pp.events[i].n)
		}
		for k := range calls {
			if cpuAt[k] > 0 && cpuAt[k+1] > 0 && calls[k] > 0 {
				out.cpuWin = append(out.cpuWin, float64(cpuAt[k+1]-cpuAt[k])/1e3/float64(calls[k]))
			}
		}
	}
	goruntime.ReadMemStats(&ms1)
	out.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	out.busyNs = f.busyNs() - busy0
	c.overflow += pr.overflow.Load()
	out.v = c.check(pr, out)
	return out, nil
}

func newPhaseRec(pp *phasePlan, admit bool, window [2]int32) *phaseRec {
	pr := &phaseRec{plan: pp, sess: make([]sessRec, len(pp.sessions))}
	// Per-session event lists, in plan order.
	for i := range pp.events {
		pr.sess[pp.events[i].sess].evCount++
	}
	var at, judges int32
	for i := range pr.sess {
		s := &pr.sess[i]
		s.evStart = at
		at += s.evCount
		s.jStart = judges
		// A run of L calls gets at most max(L-w+1, 0) window judgements
		// plus one partial-window judgement at its flush or close; a long
		// session's runs together get at most one per call plus one per
		// control event.
		if n := pp.sessions[i].n; pp.sessions[i].long {
			s.jCap = n + s.evCount
		} else {
			s.jCap = max(n-window[pp.sessions[i].role]+1, 0) + 1
		}
		judges += s.jCap
	}
	pr.evIndex = make([]int32, at)
	fill := make([]int32, len(pr.sess))
	for i := range pp.events {
		s := pp.events[i].sess
		pr.evIndex[pr.sess[s].evStart+fill[s]] = int32(i)
		fill[s]++
	}
	pr.judge = make([]judgeRec, judges)
	if admit {
		pr.evs = make([]evRec, at)
		for i := range pr.evs {
			pr.evs[i].admitted = -1
		}
	}
	for role := range pr.alerts {
		pr.alerts[role] = make([]alertRec, 0, 4096+pp.calls/64)
	}
	return pr
}
