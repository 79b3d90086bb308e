package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// armed builds an injector from a spec or fails the test.
func armed(t *testing.T, seed uint64, spec string) *Injector {
	t.Helper()
	rules, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(seed, rules)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestParseSpec(t *testing.T) {
	good := []string{
		"engine.cell:panic:0.02",
		"service.handler:latency:0.25:5ms",
		"engine.cell:error:1",
		" engine.cell:error:0.5 , service.run:panic:0.1 ",
	}
	for _, s := range good {
		if _, err := ParseSpec(s); err != nil {
			t.Errorf("ParseSpec(%q) = %v, want nil", s, err)
		}
	}
	bad := []string{
		"",
		"engine.cell",
		"engine.cell:panic",
		"engine.cell:explode:0.1",
		"engine.cell:panic:lots",
		"engine.cell:panic:0.1:5ms", // duration on a non-latency rule
		"engine.cell:latency:0.1",   // latency without duration
		"engine.cell:latency:0.1:fast",
		"engine.cell:panic:0.1,,",
		"engine.cell:panic:0.1:5ms:extra",
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", s)
		}
	}
}

func TestNewInjectorValidation(t *testing.T) {
	cases := []Rule{
		{Point: "no.such.point", Mode: ModeError, Prob: 0.5},
		{Point: PointEngineCell, Mode: ModeError, Prob: -0.1},
		{Point: PointEngineCell, Mode: ModeError, Prob: 1.5},
		{Point: PointEngineCell, Mode: ModeLatency, Prob: 0.5}, // no sleep
		{Point: PointEngineCell, Mode: ModeError, Prob: 0.5, Sleep: time.Millisecond},
	}
	for _, r := range cases {
		if _, err := NewInjector(1, []Rule{r}); err == nil {
			t.Errorf("NewInjector accepted %+v, want error", r)
		}
	}
}

// TestFireErrorMode checks the error mode fires at roughly its probability
// and wraps ErrInjected.
func TestFireErrorMode(t *testing.T) {
	inj := armed(t, 42, "engine.cell:error:0.3")
	const n = 10000
	fired := 0
	for i := 0; i < n; i++ {
		if err := inj.Fire(PointEngineCell); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected error %v does not wrap ErrInjected", err)
			}
			fired++
		}
	}
	if fired < n*25/100 || fired > n*35/100 {
		t.Errorf("error mode fired %d/%d times, want ~30%%", fired, n)
	}
	st := inj.Stats()
	if len(st) != 1 || st[0].Point != PointEngineCell {
		t.Fatalf("Stats() = %+v, want one entry for %s", st, PointEngineCell)
	}
	if st[0].Calls != n || st[0].Errors != int64(fired) || st[0].Panics != 0 {
		t.Errorf("Stats() = %+v, want calls=%d errors=%d", st[0], n, fired)
	}
}

// TestFireDeterministicBySeed replays the decision stream: same seed, same
// spec, same invocation sequence => identical fire pattern; different seed
// => a different one.
func TestFireDeterministicBySeed(t *testing.T) {
	pattern := func(seed uint64) []bool {
		inj := armed(t, seed, "service.run:error:0.5")
		out := make([]bool, 200)
		for i := range out {
			out[i] = inj.Fire(PointServiceRun) != nil
		}
		return out
	}
	a, b, c := pattern(7), pattern(7), pattern(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at invocation %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical 200-step decision streams")
	}
}

func TestFirePanicMode(t *testing.T) {
	inj := armed(t, 1, "engine.cell:panic:1")
	defer func() {
		r := recover()
		pv, ok := r.(PanicValue)
		if !ok {
			t.Fatalf("recovered %v (%T), want PanicValue", r, r)
		}
		if pv.Point != PointEngineCell {
			t.Errorf("panic point %q, want %q", pv.Point, PointEngineCell)
		}
	}()
	_ = inj.Fire(PointEngineCell)
	t.Fatal("panic mode with probability 1 did not panic")
}

func TestFireLatencyMode(t *testing.T) {
	inj := armed(t, 1, "service.handler:latency:1:10ms")
	start := time.Now()
	if err := inj.Fire(PointServiceHandler); err != nil {
		t.Fatalf("latency mode returned error %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("latency mode slept %v, want >= 10ms", d)
	}
	if st := inj.Stats(); st[0].Latencies != 1 {
		t.Errorf("Stats latencies = %d, want 1", st[0].Latencies)
	}
}

// TestFireUnarmedPointIsNoop: points without rules never fire, and global
// Fire with no injector installed is a no-op.
func TestFireUnarmedPointIsNoop(t *testing.T) {
	inj := armed(t, 1, "engine.cell:error:1")
	for i := 0; i < 100; i++ {
		if err := inj.Fire(PointServiceRun); err != nil {
			t.Fatalf("unarmed point fired: %v", err)
		}
	}

	Disable()
	if Enabled() {
		t.Fatal("Enabled() after Disable()")
	}
	for i := 0; i < 100; i++ {
		if err := Fire(PointEngineCell); err != nil {
			t.Fatalf("disabled Fire returned %v", err)
		}
	}
}

func TestEnableDisable(t *testing.T) {
	inj, err := Enable(99, "engine.cell:error:1")
	if err != nil {
		t.Fatal(err)
	}
	defer Disable()
	if !Enabled() || Active() != inj {
		t.Fatal("Enable did not install the injector")
	}
	if err := Fire(PointEngineCell); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed Fire = %v, want ErrInjected", err)
	}
	if inj.Seed() != 99 {
		t.Errorf("Seed() = %d, want 99", inj.Seed())
	}
	Disable()
	if err := Fire(PointEngineCell); err != nil {
		t.Fatalf("Fire after Disable = %v, want nil", err)
	}
}

// TestFireConcurrentStreamConservation hammers one point from many
// goroutines: no race (under -race), and calls == sum of decisions taken,
// i.e. the locked stream never loses or double-counts an invocation.
func TestFireConcurrentStreamConservation(t *testing.T) {
	inj := armed(t, 3, "service.run:error:0.4")
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	fired := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if inj.Fire(PointServiceRun) != nil {
					fired[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, f := range fired {
		total += f
	}
	st := inj.Stats()
	if st[0].Calls != goroutines*per {
		t.Errorf("calls = %d, want %d", st[0].Calls, goroutines*per)
	}
	if st[0].Errors != total {
		t.Errorf("stats errors = %d, callers observed %d", st[0].Errors, total)
	}
}

// TestMultiRuleFirstCoinWins: several rules on one point are tried in spec
// order; with the first at probability 1 the second never fires.
func TestMultiRuleFirstCoinWins(t *testing.T) {
	inj := armed(t, 5, "engine.cell:error:1,engine.cell:latency:1:1h")
	done := make(chan error, 1)
	go func() { done <- inj.Fire(PointEngineCell) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("fire = %v, want ErrInjected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fire slept: the 1h latency rule fired despite the error rule at probability 1")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{ModeError: "error", ModePanic: "panic", ModeLatency: "latency", Mode(9): "Mode(9)"} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
	if s := (PanicValue{Point: "x"}).String(); s != "fault: injected panic at x" {
		t.Errorf("PanicValue.String() = %q", s)
	}
	_ = fmt.Stringer(PanicValue{})
}

// Enabled reports whether a process-wide injector is installed.
func Enabled() bool { return active.Load() != nil }

// Active returns the installed injector (nil when disabled).
func Active() *Injector { return active.Load() }
