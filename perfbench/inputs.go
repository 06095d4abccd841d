package main

// Replay inputs: the tenants' call corpora, their pre-encoded wire forms, and
// the seeded per-phase event schedule. The coordinator and the generator
// process both build these from the same seed, so they agree on every byte
// and every due time without shipping the schedule between processes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"

	"adprom/internal/attack"
	"adprom/internal/collector"
	"adprom/internal/dataset"
	"adprom/internal/ingest"
)

// fixtureCases is how many app4 test cases the fixture trains on and the
// bulk-large corpus replays.
const fixtureCases = 60

// sidDigits is the fixed width of the numeric part of a session id
// ("s" + digits): the first two digits are the phase, the rest the
// phase-local session index (below sidPhase), so pre-encoded events only
// need their digits patched.
const (
	sidDigits = 9
	sidPhase  = 1e7
)

type template struct {
	start, n int32  // arena range
	attack   string // attack name; "" for a corpus run
}

// tenantInput is one tenant's replay material.
type tenantInput struct {
	name  string
	role  int
	calls []collector.Call // arena: corpus runs, then attack runs
	tmpls []template
	// normal and attacks index tmpls; corpusEnd is where the attack runs
	// start in the arena (long sessions cycle over [0, corpusEnd)).
	normal    []int32
	attacks   []int32
	corpusEnd int32
	// attackNames lists the staged attacks; byAttack[i] holds the templates
	// of attackNames[i].
	attackNames []string
	byAttack    [][]int32

	// Pre-encoded wire forms. binFrag[binOff[i]:binOff[i+1]] is call i's
	// binary frame fragment; ndj[ndjOff[i]:ndjOff[i+1]] is a complete
	// one-call NDJSON line for call i with a placeholder session id at
	// ndjSID. ndjClose is the close line, same placeholder offset.
	binFrag    []byte
	binOff     []int32
	ndj        []byte
	ndjOff     []int32
	ndjSID     int
	ndjControl map[ingest.Kind][]byte // flush and close lines
	// runEnd[i] is the arena index just past the corpus run holding call i.
	runEnd []int32
}

// wireCall strips what the wire does not carry (interpreter origins), so the
// reference replay sees exactly the calls the server decodes.
func wireCall(c collector.Call) collector.Call {
	return collector.Call{Label: c.Label, Name: c.Name, Caller: c.Caller, Block: c.Block, SQL: c.SQL, Rows: c.Rows}
}

func lookupApp(name string) (*dataset.App, error) {
	switch name {
	case "apph":
		return dataset.AppH(), nil
	case "appb":
		return dataset.AppB(), nil
	case "app4":
		app := dataset.App4()
		app.TestCases = app.TestCases[:fixtureCases]
		return app, nil
	}
	return nil, fmt.Errorf("no app %q", name)
}

// fusedAttacks is every attack staged against the banking app: the five
// program/injection attacks, the man-in-the-middle rewrite, and the three
// HMM-evading SQL-channel adversaries.
func fusedAttacks() []attack.Attack {
	out := attack.AppBAttacks()
	out = append(out, attack.AppBMITM())
	return append(out, attack.SQLChannelAttacks()...)
}

func buildTenantInput(name string, role int) (*tenantInput, error) {
	app, err := lookupApp(name)
	if err != nil {
		return nil, err
	}
	ti := &tenantInput{name: name, role: role}
	traces, err := app.CollectTraces(collector.ModeADPROM)
	if err != nil {
		return nil, err
	}
	add := func(tr collector.Trace, atk string) {
		if len(tr) == 0 {
			return
		}
		t := template{start: int32(len(ti.calls)), n: int32(len(tr)), attack: atk}
		for _, c := range tr {
			ti.calls = append(ti.calls, wireCall(c))
		}
		if atk == "" {
			ti.normal = append(ti.normal, int32(len(ti.tmpls)))
		} else {
			ti.attacks = append(ti.attacks, int32(len(ti.tmpls)))
		}
		ti.tmpls = append(ti.tmpls, t)
	}
	for _, tr := range traces {
		add(tr, "")
	}
	ti.corpusEnd = int32(len(ti.calls))
	ti.runEnd = make([]int32, ti.corpusEnd)
	for _, t := range ti.tmpls {
		for i := t.start; i < t.start+t.n; i++ {
			ti.runEnd[i] = t.start + t.n
		}
	}
	if role == roleFused {
		for _, a := range fusedAttacks() {
			prog, err := a.Apply(app.Prog)
			if err != nil {
				return nil, fmt.Errorf("attack %s: %w", a.Name, err)
			}
			cases := a.Cases
			if cases == nil {
				cases = app.TestCases
			}
			before := len(ti.attacks)
			for i, tc := range cases {
				tr, err := app.RunCase(prog, tc, collector.ModeADPROM, a.Setup)
				if err != nil {
					return nil, fmt.Errorf("attack %s case %s: %w", a.Name, tc.Name, err)
				}
				// An attack staged on the app's own test cases only acts on
				// the runs that reach the mutated code; a run whose calls are
				// identical to the unmodified run is not an attack run.
				if a.Cases == nil && sameTrace(tr, traces[i]) {
					continue
				}
				add(tr, a.Name)
			}
			ti.attackNames = append(ti.attackNames, a.Name)
			ti.byAttack = append(ti.byAttack, ti.attacks[before:len(ti.attacks):len(ti.attacks)])
			if len(ti.attacks) == before {
				return nil, fmt.Errorf("attack %s changed no run", a.Name)
			}
		}
		if len(ti.attacks) == 0 {
			return nil, errors.New("no attack runs collected")
		}
	}
	if err := ti.encode(); err != nil {
		return nil, err
	}
	return ti, nil
}

func placeholderSID() string {
	b := make([]byte, 1+sidDigits)
	b[0] = 's'
	for i := 1; i < len(b); i++ {
		b[i] = '0'
	}
	return string(b)
}

func (ti *tenantInput) encode() error {
	sid := placeholderSID()
	ti.binOff = make([]int32, len(ti.calls)+1)
	ti.ndjOff = make([]int32, len(ti.calls)+1)
	for i := range ti.calls {
		c := &ti.calls[i]
		var err error
		if ti.binFrag, err = appendCallFrag(ti.binFrag, c); err != nil {
			return err
		}
		ti.binOff[i+1] = int32(len(ti.binFrag))
		if ti.ndj, err = ingest.EncodeNDJSON(ti.ndj, ingest.Event{
			Kind: ingest.KindObserve, Tenant: ti.name, Session: sid, Calls: ti.calls[i : i+1],
		}); err != nil {
			return err
		}
		ti.ndjOff[i+1] = int32(len(ti.ndj))
	}
	ti.ndjControl = map[ingest.Kind][]byte{}
	for _, k := range []ingest.Kind{ingest.KindFlush, ingest.KindClose} {
		line, err := ingest.EncodeNDJSON(nil, ingest.Event{Kind: k, Tenant: ti.name, Session: sid})
		if err != nil {
			return err
		}
		ti.ndjControl[k] = line
	}
	ti.ndjSID = bytes.Index(ti.ndjControl[ingest.KindClose], []byte(sid)) + 1
	if ti.ndjSID <= 0 || bytes.Index(ti.ndjControl[ingest.KindFlush], []byte(sid))+1 != ti.ndjSID {
		return errors.New("session placeholder not at a common offset in the NDJSON lines")
	}
	return nil
}

// appendCallFrag appends one call in the binary frame layout (v3): label,
// name, caller as u16-prefixed strings, block u32, sql u16-prefixed, rows u32.
func appendCallFrag(dst []byte, c *collector.Call) ([]byte, error) {
	for _, s := range []string{c.Label, c.Name, c.Caller} {
		if len(s) > 0xFFFF {
			return dst, fmt.Errorf("call string of %d bytes exceeds the frame limit", len(s))
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.Block))
	if len(c.SQL) > 0xFFFF {
		return dst, fmt.Errorf("query of %d bytes exceeds the frame limit", len(c.SQL))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(c.SQL)))
	dst = append(dst, c.SQL...)
	return binary.BigEndian.AppendUint32(dst, uint32(c.Rows)), nil
}

func sameTrace(a, b collector.Trace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := wireCall(a[i]), wireCall(b[i])
		if !sameCall(&x, &y) {
			return false
		}
	}
	return true
}

func sameCall(a, b *collector.Call) bool {
	return a.Label == b.Label && a.Name == b.Name && a.Caller == b.Caller &&
		a.Block == b.Block && a.SQL == b.SQL && a.Rows == b.Rows && len(a.Origins) == len(b.Origins)
}

func putSID(dst []byte, id int64) {
	for i := sidDigits - 1; i >= 0; i-- {
		dst[i] = byte('0' + id%10)
		id /= 10
	}
}

// parseSID inverts sessionID; ok is false for ids the benchmark did not
// generate.
func parseSID(s string) (phase int, idx int32, ok bool) {
	if len(s) != 1+sidDigits || s[0] != 's' {
		return 0, 0, false
	}
	var v int64
	for i := 1; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, 0, false
		}
		v = v*10 + int64(d)
	}
	return int(v / sidPhase), int32(v % sidPhase), true
}

func sessionID(phase int, idx int32) string {
	b := make([]byte, 1+sidDigits)
	b[0] = 's'
	putSID(b[1:], int64(phase)*sidPhase+int64(idx))
	return string(b)
}

// event is one wire event of a phase: an observe carrying calls [lo, lo+n)
// of session sess's stream, or the session's flush (end of one run on a
// long-lived session) or close. before counts the calls of all earlier
// events, which fixes the event's due time at a given rate.
type event struct {
	sess   int32
	lo, n  int32
	kind   ingest.Kind
	before int64
}

// sessInfo is one phase session.
type sessInfo struct {
	role   uint8
	conn   uint8
	long   bool
	tmpl   int32 // template index (-1 for long sessions)
	start  int32 // arena index of the stream's first call
	n      int32 // calls sent
	attack bool
}

type phasePlan struct {
	phase    int
	sessions []sessInfo
	events   []event
	calls    int64
}

// callIndex maps a session's i-th call to the tenant arena. Long sessions
// cycle through the corpus runs in order.
func (ti *tenantInput) callIndex(s *sessInfo, i int32) int32 {
	if s.long {
		return (s.start + i) % ti.corpusEnd
	}
	return s.start + i
}

// dueNs is an event's scheduled send time relative to the phase start.
func dueNs(before int64, rate float64) int64 {
	return int64(float64(before) * 1e9 / rate)
}

type workloadInput struct {
	spec    *spec
	seed    int64
	tenants [2]*tenantInput
}

func buildInputs(sp *spec, seed int64) (*workloadInput, error) {
	wi := &workloadInput{spec: sp, seed: seed}
	var err error
	if wi.tenants[roleHMM], err = buildTenantInput(sp.hmmTenant, roleHMM); err != nil {
		return nil, err
	}
	if wi.tenants[roleFused], err = buildTenantInput("appb", roleFused); err != nil {
		return nil, err
	}
	return wi, nil
}

// plan builds phase p's schedule with at least nCalls calls. The same
// (seed, phase, nCalls) always yields the same plan.
func (wi *workloadInput) plan(phase int, nCalls int64) *phasePlan {
	rng := rand.New(rand.NewSource(wi.seed*1_000_003 + int64(phase)*7919 + 17))
	pp := &phasePlan{phase: phase}
	sp := wi.spec
	fused := wi.tenants[roleFused]
	// Attack runs cycle through the attacks in a seeded order, each drawing
	// one of its runs at random, so every attack appears once the phase has
	// drawn as many attack runs as there are attacks.
	perm := rng.Perm(len(fused.attackNames))
	nextAttack := 0
	pickAttack := func() int32 {
		runs := fused.byAttack[perm[nextAttack%len(perm)]]
		nextAttack++
		return runs[rng.Intn(len(runs))]
	}
	newSession := func(role int, conn int, tmpl int32, long bool, start int32) int32 {
		s := sessInfo{role: uint8(role), conn: uint8(conn), long: long, tmpl: tmpl, start: start}
		if !long {
			t := wi.tenants[role].tmpls[tmpl]
			s.start = t.start
			s.attack = t.attack != ""
		}
		pp.sessions = append(pp.sessions, s)
		return int32(len(pp.sessions) - 1)
	}
	emit := func(sess, lo, n int32) {
		pp.events = append(pp.events, event{sess: sess, lo: lo, n: n, kind: ingest.KindObserve, before: pp.calls})
		pp.calls += int64(n)
		pp.sessions[sess].n = lo + n
	}
	control := func(sess int32, kind ingest.Kind) {
		pp.events = append(pp.events, event{sess: sess, kind: kind, before: pp.calls})
	}
	// runSession sends a whole short run as frames, then its close.
	runSession := func(sess int32, n int32) {
		for lo := int32(0); lo < n; lo += int32(sp.frameCalls) {
			emit(sess, lo, min(int32(sp.frameCalls), n-lo))
		}
		control(sess, ingest.KindClose)
	}

	switch sp.kind {
	case streamRuns:
		type slot struct {
			sess, pos, n int32
		}
		slots := make([]slot, 2*sp.open)
		for i := range slots {
			slots[i].sess = -1
		}
		for pp.calls < nCalls {
			si := rng.Intn(len(slots))
			sl := &slots[si]
			role := si % 2
			if sl.sess < 0 {
				ti := wi.tenants[role]
				var tmpl int32
				if role == roleFused && rng.Float64() < sp.attackShare {
					tmpl = pickAttack()
				} else {
					tmpl = ti.normal[rng.Intn(len(ti.normal))]
				}
				sl.sess = newSession(role, (si/2)%conns, tmpl, false, 0)
				sl.pos, sl.n = 0, ti.tmpls[tmpl].n
			}
			k := min(int32(sp.frameCalls), sl.n-sl.pos)
			emit(sl.sess, sl.pos, k)
			sl.pos += k
			if sl.pos == sl.n {
				control(sl.sess, ingest.KindClose)
				sl.sess = -1
			}
		}
		for i := range slots {
			if slots[i].sess >= 0 {
				control(slots[i].sess, ingest.KindClose)
			}
		}
	case streamLong:
		long := make([]int32, 2*sp.open)
		for i := range long {
			long[i] = -1
		}
		attackConn := 0
		shift := [2]int{rng.Intn(len(wi.tenants[0].normal)), rng.Intn(len(wi.tenants[1].normal))}
		// Picks alternate between the tenants, so every phase of a given
		// size carries about the same number of app4 frames: app4 calls
		// cost far more than appb's, and a seeded random choice of tenant
		// would make a phase's work vary with the draw.
		for pick := 0; pp.calls < nCalls; pick++ {
			role := pick % 2
			li := 2*rng.Intn(sp.open) + role
			if role == roleFused && rng.Float64() < sp.attackShare {
				tmpl := pickAttack()
				sess := newSession(roleFused, attackConn%conns, tmpl, false, 0)
				attackConn++
				runSession(sess, fused.tmpls[tmpl].n)
				continue
			}
			ti := wi.tenants[role]
			if long[li] < 0 {
				// Starting runs are spread evenly over the corpus, shifted
				// by the seed, so every seed replays a comparable mix.
				run := (li/2*len(ti.normal)/sp.open + shift[role]) % len(ti.normal)
				long[li] = newSession(role, (li/2)%conns, -1, true, ti.tmpls[ti.normal[run]].start)
			}
			// One frame of the current run; a frame never spans two runs, and
			// the flush after a run's last frame judges its short window and
			// resets the session for the next run, as ObserveTrace does.
			sess := long[li]
			s := &pp.sessions[sess]
			at := ti.callIndex(s, s.n)
			left := ti.runEnd[at] - at
			k := min(int32(sp.frameCalls), left)
			emit(sess, s.n, k)
			if k == left {
				control(sess, ingest.KindFlush)
			}
		}
		for _, sess := range long {
			if sess >= 0 {
				control(sess, ingest.KindClose)
			}
		}
	}
	return pp
}

// encoder assembles a phase's wire bytes from the pre-encoded fragments
// without allocating per event.
type encoder struct {
	wi    *workloadInput
	phase int
}

// appendEvent appends event e's wire form to dst.
func (en *encoder) appendEvent(dst []byte, pp *phasePlan, e *event) []byte {
	s := &pp.sessions[e.sess]
	ti := en.wi.tenants[s.role]
	id := int64(en.phase)*sidPhase + int64(e.sess)
	if en.wi.spec.codec == codecNDJSON {
		if e.kind != ingest.KindObserve {
			at := len(dst)
			dst = append(dst, ti.ndjControl[e.kind]...)
			putSID(dst[at+ti.ndjSID:], id)
			return dst
		}
		// NDJSON events carry one call each.
		for i := int32(0); i < e.n; i++ {
			ci := ti.callIndex(s, e.lo+i)
			at := len(dst)
			dst = append(dst, ti.ndj[ti.ndjOff[ci]:ti.ndjOff[ci+1]]...)
			putSID(dst[at+ti.ndjSID:], id)
		}
		return dst
	}
	hdr := len(dst)
	dst = append(dst, 'A', 'D', 'I', 'N', 0, ingest.FrameVersion, byte(e.kind), 0, 0, 0, 0, 0, 0, 0, 0)
	payload := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ti.name)))
	dst = append(dst, ti.name...)
	dst = binary.BigEndian.AppendUint16(dst, 1+sidDigits)
	dst = append(dst, 's', 0, 0, 0, 0, 0, 0, 0, 0, 0)
	putSID(dst[len(dst)-sidDigits:], id)
	dst = binary.BigEndian.AppendUint16(dst, 0) // no client trace id
	if e.kind == ingest.KindObserve {
		dst = binary.BigEndian.AppendUint16(dst, uint16(e.n))
		for i := int32(0); i < e.n; i++ {
			ci := ti.callIndex(s, e.lo+i)
			dst = append(dst, ti.binFrag[ti.binOff[ci]:ti.binOff[ci+1]]...)
		}
	}
	binary.BigEndian.PutUint32(dst[hdr+7:], uint32(len(dst)-payload))
	binary.BigEndian.PutUint32(dst[hdr+11:], crc32.ChecksumIEEE(dst[payload:]))
	return dst
}

// verifyEncoding decodes a sample of assembled events with the ingest
// codecs and checks they carry exactly the planned tenant, session and
// calls, so the generator provably speaks the server's wire format.
func (wi *workloadInput) verifyEncoding() error {
	pp := wi.plan(9, 4096)
	en := &encoder{wi: wi, phase: 9}
	var buf []byte
	for i := range pp.events {
		buf = en.appendEvent(buf, pp, &pp.events[i])
	}
	var next func() (ingest.Event, error)
	if wi.spec.codec == codecNDJSON {
		next = ingest.NewNDJSONDecoder(bytes.NewReader(buf), 0).Next
	} else {
		next = ingest.NewFrameDecoder(bytes.NewReader(buf), 0).Next
	}
	for i := 0; i < len(pp.events); {
		e := &pp.events[i]
		s := &pp.sessions[e.sess]
		ti := wi.tenants[s.role]
		want := sessionID(9, e.sess)
		perEvent := e.n
		if wi.spec.codec == codecNDJSON && e.n > 1 {
			return errors.New("NDJSON events carry one call")
		}
		got, err := next()
		if err != nil {
			return fmt.Errorf("decoding event %d: %w", i, err)
		}
		if got.Tenant != ti.name || got.Session != want || int32(len(got.Calls)) != perEvent {
			return fmt.Errorf("event %d decoded as %s/%s with %d calls, want %s/%s with %d",
				i, got.Tenant, got.Session, len(got.Calls), ti.name, want, perEvent)
		}
		if got.Kind != e.kind {
			return fmt.Errorf("event %d decoded as kind %v", i, got.Kind)
		}
		for k := range got.Calls {
			if !sameCall(&got.Calls[k], &ti.calls[ti.callIndex(s, e.lo+int32(k))]) {
				return fmt.Errorf("event %d call %d decoded as %+v", i, k, got.Calls[k])
			}
		}
		i++
	}
	if _, err := next(); err != io.EOF {
		return fmt.Errorf("trailing bytes after the last event: %v", err)
	}
	return nil
}
