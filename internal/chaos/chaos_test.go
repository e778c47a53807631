package chaos

import (
	"reflect"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	s, err := Parse("7:crash@3:r1,stall@5:r2:50ms,crash@9,kill@12,stage@2,serve@4")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 {
		t.Fatalf("seed = %d, want 7", s.Seed)
	}
	want := []Fault{
		{Kind: ReplicaCrash, Step: 3, Target: 1},
		{Kind: Straggler, Step: 5, Target: 2, Delay: 50 * time.Millisecond},
		{Kind: ReplicaCrash, Step: 9, Target: -1},
		{Kind: ProcessKill, Step: 12, Target: -1},
		{Kind: StagePanic, Step: 2, Target: -1},
		{Kind: ServePanic, Step: 4, Target: -1},
	}
	if !reflect.DeepEqual(s.Faults, want) {
		t.Fatalf("faults = %+v\nwant %+v", s.Faults, want)
	}
}

func TestParseEmptyDisablesChaos(t *testing.T) {
	s, err := Parse("  ")
	if err != nil || s != nil {
		t.Fatalf("Parse(blank) = %v, %v; want nil, nil", s, err)
	}
	if in := New(nil, 4); in != nil {
		t.Fatalf("New(nil) = %v, want nil injector", in)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"nofaults",           // no ':'
		"x:crash@1",          // bad seed
		"7:",                 // no faults
		"7:boom@1",           // unknown kind
		"9:burst@1",          // unknown kind: no fault scales offered load
		"7:crash",            // missing @step
		"7:crash@-1",         // negative step
		"7:crash@x",          // non-numeric step
		"7:crash@1:rx",       // bad rank
		"7:kill@1:r2",        // kill takes no rank
		"7:stage@1:r0",       // stage takes no rank
		"7:crash@1:50ms",     // only stall takes a duration
		"7:stall@1:r0:-50ms", // negative duration
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// TestChaosOneShot asserts each fault fires exactly once and the event
// log records the delivery.
func TestChaosOneShot(t *testing.T) {
	s, err := Parse("1:crash@2:r0,serve@1,stage@3,stall@4:r1:5ms,kill@6")
	if err != nil {
		t.Fatal(err)
	}
	in := New(s, 2)
	if in.Remaining() != 5 {
		t.Fatalf("Remaining = %d, want 5", in.Remaining())
	}

	if !in.ReplicaCrash(0, 2) {
		t.Fatal("crash@2:r0 did not fire")
	}
	if in.ReplicaCrash(0, 2) {
		t.Fatal("crash@2:r0 fired twice")
	}
	if in.ReplicaCrash(1, 2) || in.ReplicaCrash(0, 3) {
		t.Fatal("crash fired for wrong rank/step")
	}

	// serve@1 fires on the second pickup (counted from 0).
	if in.ServePanic() {
		t.Fatal("serve fired on pickup 0")
	}
	if !in.ServePanic() {
		t.Fatal("serve@1 did not fire on pickup 1")
	}
	if in.ServePanic() {
		t.Fatal("serve fired twice")
	}

	if in.StagePanic(2) || !in.StagePanic(3) || in.StagePanic(3) {
		t.Fatal("stage@3 misfired")
	}
	if d := in.StragglerDelay(1, 4); d != 5*time.Millisecond {
		t.Fatalf("stall delay = %v, want 5ms", d)
	}
	if d := in.StragglerDelay(1, 4); d != 0 {
		t.Fatalf("stall fired twice (%v)", d)
	}
	if !in.ProcessKill(6) || in.ProcessKill(6) {
		t.Fatal("kill@6 misfired")
	}

	if in.Remaining() != 0 {
		t.Fatalf("Remaining = %d after delivering all, want 0", in.Remaining())
	}
	if len(in.Events()) != 5 {
		t.Fatalf("event log has %d entries, want 5: %v", len(in.Events()), in.Events())
	}
}

// TestAutoTargetsDeterministic asserts seed-derived victims are stable
// across injector constructions and differ across seeds.
func TestAutoTargetsDeterministic(t *testing.T) {
	spec := "42:crash@1,crash@2,crash@3,stall@4"
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	victims := func(in *Injector) []int {
		out := make([]int, len(in.faults))
		for i, f := range in.faults {
			out[i] = f.Target
		}
		return out
	}
	a, b := victims(New(s, 8)), victims(New(s, 8))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("auto targets differ across constructions: %v vs %v", a, b)
	}
	for _, r := range a {
		if r < 0 || r >= 8 {
			t.Fatalf("auto target %d outside rank domain", r)
		}
	}
	if one := victims(New(s, 1)); !reflect.DeepEqual(one, []int{0, 0, 0, 0}) {
		t.Fatalf("single-rank auto targets = %v, want all zero", one)
	}
}

// TestNilInjectorNeverFires asserts every query is nil-safe, so
// instrumented call sites need no guards.
func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if in.ReplicaCrash(0, 0) || in.ProcessKill(0) || in.StagePanic(0) || in.ServePanic() {
		t.Fatal("nil injector fired")
	}
	if in.StragglerDelay(0, 0) != 0 || in.Remaining() != 0 || in.Events() != nil || in.Pending() != nil {
		t.Fatal("nil injector reported state")
	}
}

func TestPendingListsUndelivered(t *testing.T) {
	s, err := Parse("1:crash@9:r0,crash@3:r1")
	if err != nil {
		t.Fatal(err)
	}
	in := New(s, 2)
	in.ReplicaCrash(1, 3)
	p := in.Pending()
	if len(p) != 1 || p[0].Step != 9 {
		t.Fatalf("Pending = %+v, want the crash@9 fault", p)
	}
}

// TestParseNetworkFaults covers the transport-level fault kinds added
// for multi-process training: partitions, slow links, dropped frames,
// and forced reconnects.
func TestParseNetworkFaults(t *testing.T) {
	s, err := Parse("9:part@2:r1,slow@3:r2:25ms,drop@4,reconn@5:r0")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: NetPartition, Step: 2, Target: 1},
		{Kind: SlowLink, Step: 3, Target: 2, Delay: 25 * time.Millisecond},
		{Kind: DropFrame, Step: 4, Target: -1},
		{Kind: Reconnect, Step: 5, Target: 0},
	}
	if !reflect.DeepEqual(s.Faults, want) {
		t.Fatalf("faults = %+v\nwant %+v", s.Faults, want)
	}
	// Durations are rejected everywhere except stall and slow.
	if _, err := Parse("9:part@2:r1:50ms"); err == nil {
		t.Fatal("part with a duration parsed, want error")
	}
	if _, err := Parse("9:drop@2:50ms"); err == nil {
		t.Fatal("drop with a duration parsed, want error")
	}
}

// TestNetworkFaultsOneShot asserts the network fault queries deliver
// exactly once at their (rank, step) coordinates, and that auto-targets
// resolve deterministically from the seed.
func TestNetworkFaultsOneShot(t *testing.T) {
	s, err := Parse("3:part@1:r0,slow@2:r1,drop@2:r0,reconn@3:r2")
	if err != nil {
		t.Fatal(err)
	}
	in := New(s, 3)
	if in.Partition(1, 1) || in.Partition(0, 0) {
		t.Fatal("partition fired at the wrong coordinates")
	}
	if !in.Partition(0, 1) {
		t.Fatal("partition did not fire at (r0, step 1)")
	}
	if in.Partition(0, 1) {
		t.Fatal("partition fired twice")
	}
	if d := in.SlowLink(1, 2); d != defaultStall {
		t.Fatalf("slow link delay = %v, want default %v", d, defaultStall)
	}
	if d := in.SlowLink(1, 2); d != 0 {
		t.Fatal("slow link fired twice")
	}
	if !in.DropFrame(0, 2) {
		t.Fatal("drop did not fire at (r0, step 2)")
	}
	if !in.Reconnect(2, 3) {
		t.Fatal("reconnect did not fire at (r2, step 3)")
	}
	if in.Remaining() != 0 {
		t.Fatalf("%d faults pending after delivery: %v", in.Remaining(), in.Pending())
	}

	// Auto-targeted network faults draw their victim from the seed —
	// the same spec resolves identically in every process of a cluster.
	a := New(mustParse(t, "5:part@4,drop@6"), 3)
	b := New(mustParse(t, "5:part@4,drop@6"), 3)
	for r := 0; r < 3; r++ {
		if a.Partition(r, 4) != b.Partition(r, 4) {
			t.Fatalf("auto-targeted partition diverged at rank %d", r)
		}
		if a.DropFrame(r, 6) != b.DropFrame(r, 6) {
			t.Fatalf("auto-targeted drop diverged at rank %d", r)
		}
	}
}

func mustParse(t *testing.T, spec string) *Schedule {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParseOverloadFaults covers the serve-plane overload grammar:
// slownode@N[:rR][:D].
func TestParseOverloadFaults(t *testing.T) {
	s, err := Parse("9:slownode@40:r1:30ms,slownode@5")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: SlowNode, Step: 40, Target: 1, Delay: 30 * time.Millisecond},
		{Kind: SlowNode, Step: 5, Target: -1},
	}
	if !reflect.DeepEqual(s.Faults, want) {
		t.Fatalf("faults = %+v\nwant %+v", s.Faults, want)
	}
	// Auto-targeting resolves slownode victims from the seed.
	in := New(s, 4)
	for i, f := range in.faults {
		if f.Kind == SlowNode && (f.Target < 0 || f.Target >= 4) {
			t.Fatalf("fault %d: slownode target %d not resolved into [0,4)", i, f.Target)
		}
	}
	for _, bad := range []string{
		"9:slownode@1:rx",     // bad rank
		"9:slownode@1:banana", // bad duration
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// TestServeBatchSlowNodeLatch: the first pickup at or past a slownode
// fault's step latches the delay durably — a sick-but-alive node, not a
// one-shot hiccup — while serve@ panics stay one-shot on the shared
// pickup counter.
func TestServeBatchSlowNodeLatch(t *testing.T) {
	s, err := Parse("3:serve@1,slownode@2:25ms")
	if err != nil {
		t.Fatal(err)
	}
	in := New(s, 1)

	if p, slow := in.ServeBatch(); p || slow != 0 { // pickup 0
		t.Fatalf("pickup 0: panic=%v slow=%v, want false/0", p, slow)
	}
	if p, slow := in.ServeBatch(); !p || slow != 0 { // pickup 1: serve@1
		t.Fatalf("pickup 1: panic=%v slow=%v, want true/0", p, slow)
	}
	for pickup := 2; pickup < 5; pickup++ { // slownode@2 latches
		if p, slow := in.ServeBatch(); p || slow != 25*time.Millisecond {
			t.Fatalf("pickup %d: panic=%v slow=%v, want false/25ms", pickup, p, slow)
		}
	}
	if in.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", in.Remaining())
	}
	// nil injector: no faults, no latch.
	var nilInj *Injector
	if p, slow := nilInj.ServeBatch(); p || slow != 0 {
		t.Fatal("nil injector reported a fault")
	}
}
