package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisarmedFireIsNil(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 100; i++ {
		if err := r.Fire("anything"); err != nil {
			t.Fatalf("disarmed registry fired: %v", err)
		}
	}
	if r.Calls("anything") != 0 {
		t.Fatal("disarmed point counted calls")
	}
}

func TestNthTrigger(t *testing.T) {
	r := NewRegistry()
	r.Arm("p", Plan{Nth: 3})
	for i := 1; i <= 5; i++ {
		err := r.Fire("p")
		if (i == 3) != (err != nil) {
			t.Fatalf("call %d: err=%v, want fire exactly on call 3", i, err)
		}
		if i == 3 && !errors.Is(err, ErrInjected) {
			t.Fatalf("injected error does not wrap ErrInjected: %v", err)
		}
	}
	if got := r.Fires("p"); got != 1 {
		t.Fatalf("fires = %d, want 1", got)
	}
}

func TestEveryTrigger(t *testing.T) {
	r := NewRegistry()
	r.Arm("p", Plan{Every: 2})
	for i := 1; i <= 20; i++ {
		if err := r.Fire("p"); (i%2 == 0) != (err != nil) {
			t.Fatalf("call %d: err=%v, want a fire on every 2nd call", i, err)
		}
	}
}

func TestPanicMode(t *testing.T) {
	r := NewRegistry()
	r.Arm("p", Plan{Mode: ModePanic, Nth: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("ModePanic did not panic")
		}
	}()
	r.Fire("p")
}

func TestDelayMode(t *testing.T) {
	r := NewRegistry()
	r.Arm("p", Plan{Mode: ModeDelay, Sleep: 30 * time.Millisecond, Nth: 1})
	start := time.Now()
	if err := r.Fire("p"); err != nil {
		t.Fatalf("ModeDelay returned an error: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("ModeDelay slept only %v", d)
	}
}

func TestDisarmAndReset(t *testing.T) {
	r := NewRegistry()
	r.Arm("a", Plan{Every: 1})
	r.Arm("b", Plan{Every: 1})
	if got := r.Armed(); len(got) != 2 {
		t.Fatalf("armed = %v", got)
	}
	r.Reset()
	if err := r.Fire("a"); err != nil {
		t.Fatal("reset registry still fires a")
	}
	if err := r.Fire("b"); err != nil {
		t.Fatal("reset registry still fires b")
	}
	if got := r.Armed(); len(got) != 0 {
		t.Fatalf("armed after reset = %v", got)
	}
	// Re-arming after a reset arms exactly that point.
	r.Arm("b", Plan{Every: 1})
	if err := r.Fire("a"); err != nil {
		t.Fatal("point a fires after only b was re-armed")
	}
	if err := r.Fire("b"); err == nil {
		t.Fatal("re-armed point b does not fire")
	}
	if got := r.Armed(); len(got) != 1 {
		t.Fatalf("armed after re-arming b = %v", got)
	}
}

func TestConcurrentFire(t *testing.T) {
	r := NewRegistry()
	r.Arm("p", Plan{Every: 2})
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if r.Fire("p") != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if r.Calls("p") != 800 {
		t.Fatalf("calls = %d, want 800", r.Calls("p"))
	}
	if fired != 400 {
		t.Fatalf("fired = %d, want exactly every 2nd of 800", fired)
	}
}

func TestArmFromSpec(t *testing.T) {
	r := NewRegistry()
	err := r.ArmFromSpec("core.run:mode=panic:nth=2, trace.frame.decode:every=3,io.slow:mode=delay:sleep=5ms")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Armed(); len(got) != 3 {
		t.Fatalf("armed = %v", got)
	}
	// nth=2 panic: first call clean, second panics.
	if err := r.Fire("core.run"); err != nil {
		t.Fatalf("call 1 fired: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("spec-armed panic point did not panic on call 2")
			}
		}()
		r.Fire("core.run")
	}()
	// every=3: only the third of three calls fires.
	for i := 1; i <= 3; i++ {
		if err := r.Fire("trace.frame.decode"); (i == 3) != (err != nil) {
			t.Fatalf("trace.frame.decode call %d: err=%v, want a fire on call 3 only", i, err)
		}
	}
}

func TestArmFromSpecErrors(t *testing.T) {
	for _, spec := range []string{
		":nth=1",            // empty name
		"p:nth",             // no value
		"p:mode=explode",    // unknown mode
		"p:nth=x",           // bad int
		"p:sleep=fast",      // bad duration
		"p:frequency=often", // unknown key
	} {
		r := NewRegistry()
		if err := r.ArmFromSpec(spec); err == nil {
			t.Errorf("spec %q parsed without error", spec)
		}
		if got := r.Armed(); len(got) != 0 {
			t.Errorf("spec %q armed points despite the error: %v", spec, got)
		}
	}
	if err := NewRegistry().ArmFromSpec("   "); err != nil {
		t.Errorf("blank spec: %v", err)
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	Default.Reset()
	t.Cleanup(Default.Reset)
	Default.Arm("t", Plan{Every: 1})
	if err := Fire("t"); err == nil {
		t.Fatal("package-level Fire did not hit Default")
	}
}

func BenchmarkFireDisarmed(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < b.N; i++ {
		if err := r.Fire("hot"); err != nil {
			b.Fatal(err)
		}
	}
}
