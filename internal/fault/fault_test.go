package fault

import (
	"errors"
	"testing"
	"time"
)

// drain exercises every decision method once and records the outcomes in
// a comparable form.
type decision struct {
	writeErr  string
	readErr   string
	latency   time.Duration
	tornFrac  float64
	torn      bool
	lost      bool
	evict     bool
	evictRank int
}

func drain(inj *Injector, n int) []decision {
	out := make([]decision, n)
	for i := range out {
		d := &out[i]
		if err := inj.WriteError(); err != nil {
			d.writeErr = err.Error()
		}
		if err := inj.ReadError(); err != nil {
			d.readErr = err.Error()
		}
		d.latency = inj.Latency()
		d.tornFrac, d.torn = inj.TornFraction()
		d.lost = inj.DeviceLost()
		d.evict = inj.EvictIndex()
		d.evictRank = inj.Rank(17)
	}
	return out
}

func TestNilInjectorIsSilent(t *testing.T) {
	var inj *Injector
	for _, d := range drain(inj, 100) {
		if d.writeErr != "" || d.readErr != "" || d.latency != 0 || d.torn || d.lost || d.evict {
			t.Fatalf("nil injector produced a fault: %+v", d)
		}
	}
}

func TestZeroRatesInjectNothing(t *testing.T) {
	cfg := Config{Seed: 42}
	if cfg.Enabled() {
		t.Fatal("zero rates should report disabled")
	}
	inj := New(cfg)
	for _, d := range drain(inj, 1000) {
		if d.writeErr != "" || d.readErr != "" || d.latency != 0 || d.torn || d.lost || d.evict {
			t.Fatalf("zero-rate injector produced a fault: %+v", d)
		}
	}
}

func TestSameSeedSameDecisions(t *testing.T) {
	cfg := Config{Seed: 7, Rates: Uniform(0.05)}
	a := drain(New(cfg), 5000)
	b := drain(New(cfg), 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	fired := 0
	for _, d := range a {
		if d.writeErr != "" || d.readErr != "" || d.latency != 0 || d.torn || d.lost || d.evict {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("expected some faults at rate 0.05 over 5000 consults")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := drain(New(Config{Seed: 1, Rates: Uniform(0.1)}), 2000)
	b := drain(New(Config{Seed: 2, Rates: Uniform(0.1)}), 2000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestStreamsAreIndependent: consulting one site more often must not
// shift another site's decisions.
func TestStreamsAreIndependent(t *testing.T) {
	cfg := Config{Seed: 99, Rates: Uniform(0.2)}
	a, b := New(cfg), New(cfg)
	// a: interleave write consults with everything else; b: writes only
	// first, then the rest. The read/torn/lost streams must match.
	var aRead, bRead []bool
	for i := 0; i < 1000; i++ {
		a.WriteError()
		aRead = append(aRead, a.ReadError() != nil)
	}
	for i := 0; i < 5000; i++ {
		b.WriteError() // consume the write stream far deeper
	}
	for i := 0; i < 1000; i++ {
		bRead = append(bRead, b.ReadError() != nil)
	}
	for i := range aRead {
		if aRead[i] != bRead[i] {
			t.Fatalf("read stream decision %d shifted with write-consult frequency", i)
		}
	}
}

func TestErrorClassification(t *testing.T) {
	inj := New(Config{Seed: 1, Rates: Rates{SSDWriteTransient: 1}})
	err := inj.WriteError()
	if !IsTransient(err) {
		t.Fatalf("want transient, got %v", err)
	}
	if errors.Is(err, ErrPermanent) {
		t.Fatal("transient error must not match permanent")
	}
	inj = New(Config{Seed: 1, Rates: Rates{SSDWritePermanent: 1}})
	err = inj.WriteError()
	if !errors.Is(err, ErrPermanent) || IsTransient(err) {
		t.Fatalf("want permanent, got %v", err)
	}
}

func TestTornFractionRange(t *testing.T) {
	inj := New(Config{Seed: 3, Rates: Rates{JournalTorn: 1}})
	for i := 0; i < 1000; i++ {
		frac, torn := inj.TornFraction()
		if !torn {
			t.Fatal("rate-1 torn roll did not fire")
		}
		if frac < 0 || frac >= 1 {
			t.Fatalf("torn fraction %g outside [0,1)", frac)
		}
	}
}

func TestLatencySpikeMagnitude(t *testing.T) {
	inj := New(Config{Seed: 4, Rates: Rates{SSDLatencySpike: 1}})
	for i := 0; i < 100; i++ {
		d := inj.Latency()
		if d < 2*time.Millisecond || d > 8*time.Millisecond {
			t.Fatalf("spike %v outside 1-4x 2ms", d)
		}
	}
}

func TestBackoffIsBoundedAndMonotone(t *testing.T) {
	prev := time.Duration(0)
	for i := 0; i <= MaxRetries; i++ {
		b := Backoff(i)
		if b <= prev {
			t.Fatalf("backoff not increasing at attempt %d", i)
		}
		prev = b
	}
	if Backoff(-5) != Backoff(0) {
		t.Fatal("negative attempt should clamp")
	}
	if Backoff(1000) <= 0 {
		t.Fatal("huge attempt must not overflow to non-positive")
	}
}

func TestUniformLeavesPermanentOff(t *testing.T) {
	r := Uniform(0.5)
	if r[SSDWritePermanent] != 0 {
		t.Fatal("Uniform must not enable permanent write errors")
	}
	if r[NodeCrash] != 0 || r[ReplicaDivergence] != 0 {
		t.Fatal("Uniform must not enable node-level kinds (cluster-scoped)")
	}
	if !(Config{Rates: r}).Enabled() {
		t.Fatal("Uniform(0.5) should enable injection")
	}
}

func TestNodeUniform(t *testing.T) {
	r := NodeUniform(0.01, 0.02)
	if r[NodeCrash] != 0.01 || r[ReplicaDivergence] != 0.02 {
		t.Fatalf("NodeUniform rates wrong: %+v", r)
	}
	if r[SSDWriteTransient] != 0 || r[JournalTorn] != 0 {
		t.Fatal("NodeUniform must leave device-level kinds off")
	}
	if !(Config{Rates: r}).Enabled() {
		t.Fatal("NodeUniform should enable injection")
	}
}

// TestNodeKindsDeterministicAndIndependent: the node-level streams make
// identical decisions for identical seeds, and consulting device-level
// streams more often never shifts them (the cluster sequencing phase and
// the per-node volumes draw from disjoint streams).
func TestNodeKindsDeterministicAndIndependent(t *testing.T) {
	cfg := Config{Seed: 11, Rates: NodeUniform(0.05, 0.1)}
	type nodeDecision struct {
		crash    bool
		victim   int
		delay    int
		diverges bool
	}
	drainNodes := func(inj *Injector, extraDevice int) []nodeDecision {
		out := make([]nodeDecision, 2000)
		for i := range out {
			for k := 0; k < extraDevice; k++ {
				inj.WriteError() // device streams must not perturb node streams
			}
			out[i] = nodeDecision{
				crash:    inj.NodeCrashes(),
				victim:   inj.CrashVictim(5),
				delay:    inj.RejoinDelayOps(50, 200),
				diverges: inj.ReplicaDiverges(),
			}
		}
		return out
	}
	a := drainNodes(New(cfg), 0)
	b := drainNodes(New(cfg), 3)
	crashes, diverges := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node decision %d shifted with device-stream consults: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].crash {
			crashes++
		}
		if a[i].diverges {
			diverges++
		}
		if a[i].victim < 0 || a[i].victim >= 5 {
			t.Fatalf("victim %d outside [0,5)", a[i].victim)
		}
		if a[i].delay < 50 || a[i].delay > 200 {
			t.Fatalf("rejoin delay %d outside [50,200]", a[i].delay)
		}
	}
	if crashes == 0 || diverges == 0 {
		t.Fatalf("node rates never fired over 2000 consults (crashes=%d diverges=%d)", crashes, diverges)
	}
}

// TestNilInjectorNodeKinds: the nil injector stays silent on the node
// methods and RejoinDelayOps degrades to the minimum delay.
func TestNilInjectorNodeKinds(t *testing.T) {
	var inj *Injector
	if inj.NodeCrashes() || inj.ReplicaDiverges() {
		t.Fatal("nil injector fired a node fault")
	}
	if inj.CrashVictim(7) != 0 {
		t.Fatal("nil injector chose a nonzero victim")
	}
	if got := inj.RejoinDelayOps(50, 200); got != 50 {
		t.Fatalf("nil injector rejoin delay = %d, want 50", got)
	}
}
