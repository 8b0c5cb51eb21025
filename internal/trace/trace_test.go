package trace

import (
	"testing"
	"testing/quick"
)

func TestLitmusWorkloadsValidate(t *testing.T) {
	for _, w := range []*Workload{
		StoreBuffering(), MessagePassing(), WRC(), IRIW(), MPFenced(),
	} {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestLitmusShapes(t *testing.T) {
	if n := len(StoreBuffering().Threads); n != 2 {
		t.Errorf("SB has %d threads", n)
	}
	if n := len(WRC().Threads); n != 3 {
		t.Errorf("WRC has %d threads", n)
	}
	if n := len(IRIW().Threads); n != 4 {
		t.Errorf("IRIW has %d threads", n)
	}
	if StoreBuffering().MemOps() != 4 {
		t.Errorf("SB memops = %d", StoreBuffering().MemOps())
	}
}

func TestLitmusDistinctLines(t *testing.T) {
	x, y := LitmusAddrs()
	if x/32 == y/32 {
		t.Fatal("litmus x and y share a cache line")
	}
}

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 10 {
		t.Fatalf("%d profiles, want 10 (the paper's SPLASH-2 set)", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.PartitionLines <= 0 || p.HotLines <= 0 || p.Locks <= 0 || p.BurstMin <= 0 || p.BurstMax < p.BurstMin {
			t.Errorf("%s: malformed profile %+v", p.Name, p)
		}
		if p.SharedFrac < 0 || p.SharedFrac > 1 || p.RacyFrac < 0 || p.RacyFrac > 1 {
			t.Errorf("%s: fractions out of range", p.Name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("radiosity")
	if err != nil || p.Name != "radiosity" {
		t.Fatalf("lookup failed: %v", err)
	}
	if _, err := ProfileByName("doom"); err == nil {
		t.Fatal("unknown app did not error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("barnes")
	a := p.Generate(4, 500, 42)
	b := p.Generate(4, 500, 42)
	if len(a.Threads) != len(b.Threads) {
		t.Fatal("thread counts differ")
	}
	for tid := range a.Threads {
		if len(a.Threads[tid]) != len(b.Threads[tid]) {
			t.Fatalf("thread %d lengths differ", tid)
		}
		for i := range a.Threads[tid] {
			if a.Threads[tid][i] != b.Threads[tid][i] {
				t.Fatalf("thread %d op %d differs", tid, i)
			}
		}
	}
}

func TestGenerateSeedSensitive(t *testing.T) {
	p, _ := ProfileByName("fft")
	a := p.Generate(2, 300, 1)
	b := p.Generate(2, 300, 2)
	same := true
	if len(a.Threads[0]) != len(b.Threads[0]) {
		same = false
	} else {
		for i := range a.Threads[0] {
			if a.Threads[0][i] != b.Threads[0][i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGeneratedWorkloadsValidate(t *testing.T) {
	for _, p := range Profiles() {
		for _, n := range []int{1, 2, 8} {
			w := p.Generate(n, 400, 7)
			if err := w.Validate(); err != nil {
				t.Errorf("%s x%d: %v", p.Name, n, err)
			}
			if got := len(w.Threads); got != n {
				t.Errorf("%s: %d threads, want %d", p.Name, got, n)
			}
		}
	}
}

func TestGeneratedOpCounts(t *testing.T) {
	for _, p := range Profiles() {
		w := p.Generate(4, 1000, 3)
		for tid, th := range w.Threads {
			if len(th) < 1000 {
				t.Errorf("%s thread %d: only %d ops", p.Name, tid, len(th))
			}
			// Generation overshoots by at most one critical section.
			if len(th) > 1200 {
				t.Errorf("%s thread %d: %d ops, excessive overshoot", p.Name, tid, len(th))
			}
		}
	}
}

func TestGeneratedMix(t *testing.T) {
	// The racy fraction and write fraction must be reflected in the mix.
	p, _ := ProfileByName("radiosity")
	w := p.Generate(2, 4000, 11)
	var reads, writes, acq, rel int
	for _, th := range w.Threads {
		for _, op := range th {
			switch op.Kind {
			case Read:
				reads++
			case Write:
				writes++
			case Acquire:
				acq++
			case Release:
				rel++
			}
		}
	}
	if acq == 0 || acq != rel {
		t.Fatalf("acquire/release mismatch: %d/%d", acq, rel)
	}
	wf := float64(writes) / float64(reads+writes)
	if wf < 0.10 || wf > 0.60 {
		t.Fatalf("write fraction %.2f implausible for profile WriteFrac=%.2f", wf, p.WriteFrac)
	}
}

func TestAddressRegionsDisjoint(t *testing.T) {
	f := func(line uint16, word uint8, lock uint8, tid uint8, pw uint16) bool {
		s := SharedWord(int(line%1024), int(word%4))
		l := LockAddr(int(lock))
		p := PrivateWord(int(tid%64), int(pw))
		return s < l && l < p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedWordLineGeometry(t *testing.T) {
	// Words of the same line share the line; different lines do not.
	if SharedWord(3, 0)/32 != SharedWord(3, 3)/32 {
		t.Fatal("words 0 and 3 of line 3 on different lines")
	}
	if SharedWord(3, 0)/32 == SharedWord(4, 0)/32 {
		t.Fatal("lines 3 and 4 collide")
	}
}

func TestValidateCatchesBarrierMismatch(t *testing.T) {
	w := &Workload{
		Name: "bad",
		Threads: []Thread{
			{{Kind: Barrier, ID: 0}},
			{{Kind: Barrier, ID: 1}},
		},
	}
	if err := w.Validate(); err == nil {
		t.Fatal("barrier mismatch not detected")
	}
}

func TestValidateCatchesUnbalancedLocks(t *testing.T) {
	w := &Workload{
		Name: "bad-locks",
		Threads: []Thread{
			{{Kind: Acquire, Addr: LockAddr(0)}},
		},
	}
	if err := w.Validate(); err == nil {
		t.Fatal("unbalanced acquire not detected")
	}
	w2 := &Workload{
		Name: "bad-release",
		Threads: []Thread{
			{{Kind: Release, Addr: LockAddr(0)}},
		},
	}
	if err := w2.Validate(); err == nil {
		t.Fatal("release-without-acquire not detected")
	}
}

func TestValidateEmptyWorkload(t *testing.T) {
	w := &Workload{Name: "empty"}
	if err := w.Validate(); err == nil {
		t.Fatal("empty workload validated")
	}
}

func TestSortedAppNames(t *testing.T) {
	names := SortedAppNames()
	if len(names) != 10 {
		t.Fatalf("%d names", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("names not sorted")
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" || Acquire.String() != "ACQ" ||
		Release.String() != "REL" || Barrier.String() != "BAR" || Compute.String() != "C" {
		t.Fatal("op mnemonics wrong")
	}
}

func TestOpKindIsMem(t *testing.T) {
	for k, want := range map[OpKind]bool{Read: true, Write: true, Acquire: true, Release: true,
		Barrier: false, Compute: false, Compute + 1: false} {
		if k.IsMem() != want {
			t.Errorf("%v.IsMem() = %v, want %v", k, !want, want)
		}
	}
}
