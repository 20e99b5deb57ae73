package ingest

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"taxilight/internal/trace"
)

func TestParseSpecs(t *testing.T) {
	cases := []struct {
		in   string
		want []Spec
		err  bool
	}{
		{in: "-", want: []Spec{{Name: "-", Kind: KindStdin, Addr: "-"}}},
		{in: "trace.csv.gz", want: []Spec{{Name: "trace.csv.gz", Kind: KindFile, Addr: "trace.csv.gz"}}},
		{in: "tcp://:7001", want: []Spec{{Name: "tcp://:7001", Kind: KindListen, Addr: ":7001"}}},
		{in: "tcp+dial://feed:7001", want: []Spec{{Name: "tcp+dial://feed:7001", Kind: KindDial, Addr: "feed:7001"}}},
		{
			in: "east=tcp+dial://e:1, west=tcp://w:2",
			want: []Spec{
				{Name: "east", Kind: KindDial, Addr: "e:1"},
				{Name: "west", Kind: KindListen, Addr: "w:2"},
			},
		},
		{
			// An "=" inside a path is part of the path, not a name.
			in:   "/data/run=5/trace.csv",
			want: []Spec{{Name: "/data/run=5/trace.csv", Kind: KindFile, Addr: "/data/run=5/trace.csv"}},
		},
		{in: "a=-,a=trace.csv", err: true}, // duplicate name
		{in: "-,", err: true},              // empty entry
		{in: "x=", err: true},              // name without address
		{in: "tcp://", err: true},          // empty address
	}
	for _, tc := range cases {
		got, err := ParseSpecs(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseSpecs(%q): want error, got %+v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpecs(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseSpecs(%q) = %+v, want %+v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseSpecs(%q)[%d] = %+v, want %+v", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.DialTimeout = 0 },
		func(c *Config) { c.BackoffMin = 0 },
		func(c *Config) { c.BackoffMax = c.BackoffMin / 2 },
		func(c *Config) { c.BackoffJitter = 1 },
		func(c *Config) { c.AcceptRetryMax = c.AcceptRetryMin / 2 },
		func(c *Config) { c.FailureBudget = -1 },
		func(c *Config) { c.FailureBudget = 3; c.CircuitCooldown = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
}

// testRec builds a valid record at base+sec with a per-index plate. An
// empty color keeps the CSV line's last field empty, matching the
// generator's torn-line-safe form.
func testRec(sec, i int) trace.Record {
	base := time.Date(2012, 5, 1, 8, 0, 0, 0, time.UTC)
	return trace.Record{
		Plate:    fmt.Sprintf("B%05d", 10000+i),
		Lon:      114.05 + float64(i)*1e-4,
		Lat:      22.55,
		Time:     base.Add(time.Duration(sec) * time.Second),
		DeviceID: int64(1000 + i),
		SpeedKMH: 30,
		Heading:  90,
		GPSOK:    true,
		SIM:      fmt.Sprintf("1380000%05d", i),
		Occupied: true,
		Color:    "red",
	}
}

// TestAdmitResumeGate drives the exactly-once gate through a reconnect
// replay with several records sharing the watermark second.
func TestAdmitResumeGate(t *testing.T) {
	src := newSource(Spec{Name: "d", Kind: KindDial, Addr: "x"})
	a, b := testRec(10, 0), testRec(10, 1) // same second, different lines
	c := testRec(11, 2)
	for _, r := range []trace.Record{a, b, c} {
		if !src.Admit(r) {
			t.Fatalf("first-pass record %s rejected", r.Plate)
		}
	}
	if !src.armResume() {
		t.Fatal("armResume refused with a non-zero watermark")
	}
	// The upstream replays its buffer from the start.
	for _, r := range []trace.Record{a, b, c} {
		if src.Admit(r) {
			t.Fatalf("replayed record %s double-admitted", r.Plate)
		}
	}
	// A new record at exactly the watermark second must pass (frontier
	// distinguishes it), and a newer record disarms the gate.
	d := testRec(11, 3)
	if !src.Admit(d) {
		t.Fatal("new record at the watermark second rejected")
	}
	e := testRec(12, 4)
	if !src.Admit(e) {
		t.Fatal("post-watermark record rejected")
	}
	// The gate is disarmed: replaying e's second no longer consults the
	// threshold, only the frontier at the new watermark.
	st := src.Status()
	if st.Records != 5 || st.DedupDropped != 3 {
		t.Fatalf("records=%d dedup=%d, want 5 and 3", st.Records, st.DedupDropped)
	}
	if !st.Watermark.Equal(e.Time) {
		t.Fatalf("watermark %v, want %v", st.Watermark, e.Time)
	}
}

func TestAdmitWithoutDedup(t *testing.T) {
	src := newSource(Spec{Name: "l", Kind: KindListen, Addr: "x"})
	r := testRec(5, 0)
	if !src.Admit(r) || !src.Admit(r) {
		t.Fatal("non-dial source must admit everything")
	}
	if src.armResume() {
		t.Fatal("armResume must refuse on a non-dial source")
	}
	st := src.Status()
	if st.Records != 2 || st.DedupDropped != 0 {
		t.Fatalf("records=%d dedup=%d, want 2 and 0", st.Records, st.DedupDropped)
	}
}

// TestAdmitHashesWithoutGarbage pins the frontier's fingerprint to what it
// has always been — FNV-1a over the strings.Join rendering of the record —
// and checks that computing it on every record of a dial source costs no
// allocation: at the watermark second, and across new seconds too.
func TestAdmitHashesWithoutGarbage(t *testing.T) {
	bit := func(b bool) string {
		if b {
			return "1"
		}
		return "0"
	}
	src := newSource(Spec{Name: "d", Kind: KindDial, Addr: "x"})
	for i := 0; i < 50; i++ {
		r := testRec(i%7, i)
		r.Overspeed, r.Occupied = i%2 == 0, i%3 == 0
		old := strings.Join([]string{
			r.Plate,
			strconv.FormatInt(int64(math.Round(r.Lon*1e6)), 10),
			strconv.FormatInt(int64(math.Round(r.Lat*1e6)), 10),
			r.Time.Format(trace.TimeLayout),
			strconv.FormatInt(r.DeviceID, 10),
			strconv.FormatFloat(r.SpeedKMH, 'f', 1, 64),
			strconv.FormatFloat(r.Heading, 'f', 1, 64),
			bit(r.GPSOK), bit(r.Overspeed), r.SIM, bit(r.Occupied), r.Color,
		}, ",")
		want := fnv.New64a()
		want.Write([]byte(old))
		src.mu.Lock()
		got := src.lineHash(r)
		src.mu.Unlock()
		if got != want.Sum64() {
			t.Fatalf("record %d: hash %x, want %x over %q", i, got, want.Sum64(), old)
		}
	}

	r := testRec(100, 0)
	src.Admit(r)
	if allocs := testing.AllocsPerRun(200, func() { src.Admit(r) }); allocs != 0 {
		t.Fatalf("Admit at the watermark second: %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		r.Time = r.Time.Add(time.Second)
		src.Admit(r)
	}); allocs != 0 {
		t.Fatalf("Admit on a new second: %v allocations, want 0", allocs)
	}
	if st := src.Status(); st.DedupDropped != 0 {
		t.Fatalf("dedup dropped %d without a resume", st.DedupDropped)
	}
}

// collector is a Consume callback recording admitted records in order.
type collector struct {
	mu   sync.Mutex
	recs []trace.Record
}

func (c *collector) consume(ctx context.Context, sc *trace.Scanner, src *Source) error {
	for sc.Scan() {
		rec := sc.Record()
		if src.Admit(rec) {
			c.mu.Lock()
			c.recs = append(c.recs, rec)
			c.mu.Unlock()
		}
	}
	return sc.Err()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

func (c *collector) snapshot() []trace.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]trace.Record(nil), c.recs...)
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.DialTimeout = time.Second
	cfg.BackoffMin = time.Millisecond
	cfg.BackoffMax = 5 * time.Millisecond
	cfg.BackoffJitter = 0
	cfg.AcceptRetryMin = time.Millisecond
	cfg.AcceptRetryMax = 2 * time.Millisecond
	cfg.FailureBudget = 0
	cfg.Seed = 1
	return cfg
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDialReconnectResume runs a dial source against an upstream that
// serves a strictly growing prefix of its buffer per connection and then
// hangs up: the supervisor must reconnect until the whole stream has
// been admitted exactly once, in order.
func TestDialReconnectResume(t *testing.T) {
	recs := make([]trace.Record, 10)
	for i := range recs {
		recs[i] = testRec(i, i)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for connNo := 0; ; connNo++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n := (connNo + 1) * 4
			if n > len(recs) {
				n = len(recs)
			}
			var sb strings.Builder
			for _, r := range recs[:n] {
				sb.WriteString(r.MarshalCSV())
				sb.WriteByte('\n')
			}
			conn.Write([]byte(sb.String()))
			conn.Close()
		}
	}()

	specs, err := ParseSpecs("up=tcp+dial://" + ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	col := &collector{}
	sup, err := NewSupervisor(specs, fastConfig(), trace.DefaultLenientConfig(), col.consume)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sup.Run(ctx) }()

	waitFor(t, "all records admitted", func() bool { return col.count() == len(recs) })
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}

	got := col.snapshot()
	for i, r := range got {
		if r.MarshalCSV() != recs[i].MarshalCSV() {
			t.Fatalf("record %d = %s, want %s", i, r.MarshalCSV(), recs[i].MarshalCSV())
		}
	}
	st := sup.Snapshot()[0]
	if st.Records != int64(len(recs)) {
		t.Fatalf("Records = %d, want %d", st.Records, len(recs))
	}
	if st.Reconnects < 2 || st.Resumes < 2 {
		t.Fatalf("reconnects=%d resumes=%d, want >= 2 each", st.Reconnects, st.Resumes)
	}
	if st.DedupDropped == 0 {
		t.Fatal("replayed prefixes should have been dedup-dropped")
	}
	if st.State != "done" {
		t.Fatalf("final state %q, want done", st.State)
	}
}

// TestDialCircuitBreaker points a dial source at a dead address and
// checks the breaker opens repeatedly instead of hot-looping.
func TestDialCircuitBreaker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here any more

	cfg := fastConfig()
	cfg.FailureBudget = 3
	cfg.CircuitCooldown = 2 * time.Millisecond
	specs, _ := ParseSpecs("dead=tcp+dial://" + addr)
	col := &collector{}
	sup, err := NewSupervisor(specs, cfg, trace.DefaultLenientConfig(), col.consume)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sup.Run(ctx) }()

	waitFor(t, "two circuit opens", func() bool {
		return sup.Snapshot()[0].CircuitOpens >= 2
	})
	cancel()
	<-done

	// The first open costs the full budget; every later open is one
	// failed half-open probe, not a fresh budget.
	st := sup.Snapshot()[0]
	if st.ConnsFailed < 4 {
		t.Fatalf("ConnsFailed = %d, want >= 4 (a budget of 3 plus at least one failed probe)", st.ConnsFailed)
	}
	if st.ConnsFailed > st.CircuitOpens+3 {
		t.Fatalf("ConnsFailed = %d with %d opens: half-open probes were granted a fresh budget", st.ConnsFailed, st.CircuitOpens)
	}
	if st.LastError == "" {
		t.Fatal("a refused dial should surface in LastError")
	}
	if st.Records != 0 {
		t.Fatalf("Records = %d, want 0", st.Records)
	}
}

// flakyListener injects n synthetic Accept errors before delegating.
type flakyListener struct {
	net.Listener
	mu    sync.Mutex
	fails int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.fails > 0 {
		l.fails--
		l.mu.Unlock()
		return nil, errors.New("accept: too many open files (synthetic)")
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

// TestAcceptRetryTransient drives the accept loop through transient
// errors: the source must retry, count them, and still serve the
// connection that eventually arrives.
func TestAcceptRetryTransient(t *testing.T) {
	real, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: real, fails: 2}

	cfg := fastConfig()
	cfg.FailureBudget = 5 // above the injected failure count
	cfg.CircuitCooldown = 2 * time.Millisecond
	specs, _ := ParseSpecs("push=tcp://" + real.Addr().String())
	col := &collector{}
	sup, err := NewSupervisor(specs, cfg, trace.DefaultLenientConfig(), col.consume)
	if err != nil {
		t.Fatal(err)
	}
	src := sup.Sources()[0]

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sup.acceptLoop(ctx, src, fl) }()

	conn, err := net.Dial("tcp", real.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	recs := []trace.Record{testRec(0, 0), testRec(1, 1), testRec(2, 2)}
	for _, r := range recs {
		fmt.Fprintf(conn, "%s\n", r.MarshalCSV())
	}
	conn.Close()

	waitFor(t, "pushed records admitted", func() bool { return col.count() == len(recs) })
	cancel()
	<-done
	sup.connWG.Wait()

	st := src.Status()
	if st.AcceptRetries != 2 {
		t.Fatalf("AcceptRetries = %d, want 2", st.AcceptRetries)
	}
	if st.ConnsTotal != 1 || st.Records != int64(len(recs)) {
		t.Fatalf("conns=%d records=%d, want 1 and %d", st.ConnsTotal, st.Records, len(recs))
	}
}

// TestAcceptBudgetEscalates checks an accept loop whose errors never
// stop returns after the failure budget so runListen can re-listen.
func TestAcceptBudgetEscalates(t *testing.T) {
	real, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer real.Close()
	fl := &flakyListener{Listener: real, fails: 1 << 30}

	cfg := fastConfig()
	cfg.FailureBudget = 4
	cfg.CircuitCooldown = 2 * time.Millisecond
	specs, _ := ParseSpecs("push=tcp://" + real.Addr().String())
	sup, err := NewSupervisor(specs, cfg, trace.DefaultLenientConfig(), (&collector{}).consume)
	if err != nil {
		t.Fatal(err)
	}
	src := sup.Sources()[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- sup.acceptLoop(ctx, src, fl) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("acceptLoop returned nil after exhausted budget")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("acceptLoop did not escalate after the failure budget")
	}
	if got := src.Status().AcceptRetries; got != 4 {
		t.Fatalf("AcceptRetries = %d, want 4", got)
	}
}

// TestFiniteSourceFileError checks a missing file surfaces as a named
// terminal error from Run.
func TestFiniteSourceFileError(t *testing.T) {
	specs, _ := ParseSpecs("gone=/nonexistent/trace.csv")
	sup, err := NewSupervisor(specs, fastConfig(), trace.DefaultLenientConfig(), (&collector{}).consume)
	if err != nil {
		t.Fatal(err)
	}
	err = sup.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "gone") {
		t.Fatalf("Run = %v, want named source error", err)
	}
	if st := sup.Snapshot()[0]; st.State != "done" || st.ConnsFailed != 1 {
		t.Fatalf("state=%s connsFailed=%d, want done and 1", st.State, st.ConnsFailed)
	}
}
