package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("streams for different seeds collided %d/64 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Fork()
	// The child's stream must not simply replay the parent's.
	matches := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			matches++
		}
	}
	if matches > 1 {
		t.Fatalf("fork stream tracked parent %d/64 times", matches)
	}
}

func TestForkDeterministic(t *testing.T) {
	c1 := New(9).Fork()
	c2 := New(9).Fork()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("forked children of equal parents diverged at draw %d", i)
		}
	}
}

func TestForkNamedDistinct(t *testing.T) {
	a := New(5).ForkNamed(1)
	b := New(5).ForkNamed(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("named forks with different labels collided %d/64 times", same)
	}
}

func TestSeedNamedMatchesForkNamed(t *testing.T) {
	// The contract incarnation reseeding depends on: a stored SeedNamed
	// value rebuilds exactly the stream ForkNamed would have produced,
	// and ForkNamedInto is the allocation-free spelling of the same.
	for _, label := range []uint64{0, 1, 0xa190, ^uint64(0)} {
		a := New(New(9).SeedNamed(label))
		b := New(9).ForkNamed(label)
		var c Rand
		New(9).ForkNamedInto(label, &c)
		for i := 0; i < 64; i++ {
			av := a.Uint64()
			if bv := b.Uint64(); av != bv {
				t.Fatalf("label %#x draw %d: New(SeedNamed) %d != ForkNamed %d", label, i, av, bv)
			}
			if cv := c.Uint64(); av != cv {
				t.Fatalf("label %#x draw %d: New(SeedNamed) %d != ForkNamedInto %d", label, i, av, cv)
			}
		}
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(n uint64) bool {
		n = n%1000 + 1
		v := r.Uint64n(n)
		return v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n == 0")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	const (
		n      = 10
		draws  = 100000
		expect = draws / n
	)
	r := New(11)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for v, c := range counts {
		if math.Abs(float64(c-expect)) > 0.05*float64(expect) {
			t.Errorf("value %d drawn %d times, want about %d", v, c, expect)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(13)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want about 0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(17)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(19)
	const draws = 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) hit rate %v", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	if err := quick.Check(func(raw uint8) bool {
		n := int(raw%50) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	const (
		n     = 5
		draws = 50000
	)
	r := New(29)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	expect := draws / n
	for v, c := range counts {
		if math.Abs(float64(c-expect)) > 0.08*float64(expect) {
			t.Errorf("Perm first element %d seen %d times, want about %d", v, c, expect)
		}
	}
}

func TestShuffleMatchesPermMechanics(t *testing.T) {
	a := New(31)
	b := New(31)
	n := 20
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	a.Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
	p := b.Perm(n)
	for i := range p {
		if s[i] != p[i] {
			t.Fatalf("Shuffle and Perm diverge at %d: %v vs %v", i, s, p)
		}
	}
}

func TestBitsLengthAndMask(t *testing.T) {
	r := New(37)
	tests := []struct {
		k         int
		wantWords int
	}{
		{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3},
	}
	for _, tt := range tests {
		w := r.Bits(tt.k)
		if len(w) != tt.wantWords {
			t.Errorf("Bits(%d): %d words, want %d", tt.k, len(w), tt.wantWords)
			continue
		}
		if rem := tt.k % 64; rem != 0 && len(w) > 0 {
			if w[len(w)-1]>>rem != 0 {
				t.Errorf("Bits(%d): tail bits not masked", tt.k)
			}
		}
	}
}

func TestBitsNegative(t *testing.T) {
	if got := New(1).Bits(-3); got != nil {
		t.Fatalf("Bits(-3) = %v, want nil", got)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

// TestKnownAnswers pins the exact stream: the first outputs of every
// drawing method for three seeds, in a fixed call order, recorded from
// the reference implementation. Every experiment replays from its seeds,
// so a rewrite of any draw path must reproduce these bit for bit. The
// Uint64n(2^63+1) draws reject about half their raw draws, so they cover
// the rejection loop; rejectDraws pins how many raw draws they consumed.
func TestKnownAnswers(t *testing.T) {
	type answers struct {
		seed          uint64
		uint64        [4]uint64
		uint64n10     [4]uint64
		uint64nReject [4]uint64
		rejectDraws   int
		intn1000      [4]int
		float64       [2]float64
		bools         [4]bool
		bernoulli     [4]bool
		after         uint64
	}
	cases := []answers{
		{seed: 0x1, uint64: [4]uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7}, uint64n10: [4]uint64{0x6, 0x1, 0x0, 0x3}, uint64nReject: [4]uint64{0x469e6dc61d52d8e8, 0x7a861ff8f3ebf453, 0xa4c616091043e43, 0x3ee4e1e366989c17}, rejectDraws: 10, intn1000: [4]int{45, 63, 463, 496}, float64: [2]float64{0.6107921480828804, 0.3497664216273568}, bools: [4]bool{false, false, true, false}, bernoulli: [4]bool{false, false, true, false}, after: 0x6d8eb8acb8d215d1},
		{seed: 0x2a, uint64: [4]uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1}, uint64n10: [4]uint64{0x9, 0x7, 0x7, 0x8}, uint64nReject: [4]uint64{0x6174b739374bb23f, 0x2534edcc39d7c4b2, 0x6687f6d49803635b, 0x705aad345cb33bfd}, rejectDraws: 8, intn1000: [4]int{616, 851, 707, 707}, float64: [2]float64{0.0928600625172592, 0.17902281011233556}, bools: [4]bool{true, true, false, false}, bernoulli: [4]bool{true, false, false, true}, after: 0x6a0da881492d3bfd},
		{seed: 0xdeadbeefcafef00d, uint64: [4]uint64{0x9e32cfb5bb93eebb, 0x16006bd9d4ac0014, 0x8ada5d6d34b6538e, 0x7c327ca32346a238}, uint64n10: [4]uint64{0x7, 0x8, 0x7, 0x7}, uint64nReject: [4]uint64{0x630218045310553c, 0x6a643cd17145d43a, 0x6b74f7b2e61a8d56, 0x363ac94c80003892}, rejectDraws: 9, intn1000: [4]int{503, 332, 255, 444}, float64: [2]float64{0.7815502347809378, 0.39962233351362775}, bools: [4]bool{true, true, false, true}, bernoulli: [4]bool{false, false, true, false}, after: 0x3a5df396edc947cd},
	}
	for _, want := range cases {
		r := New(want.seed)
		got := answers{seed: want.seed}
		for i := range got.uint64 {
			got.uint64[i] = r.Uint64()
		}
		for i := range got.uint64n10 {
			got.uint64n10[i] = r.Uint64n(10)
		}
		raw := *r
		for i := range got.uint64nReject {
			got.uint64nReject[i] = r.Uint64n(1<<63 + 1)
		}
		for raw != *r {
			raw.Uint64()
			got.rejectDraws++
		}
		for i := range got.intn1000 {
			got.intn1000[i] = r.Intn(1000)
		}
		for i := range got.float64 {
			got.float64[i] = r.Float64()
		}
		for i := range got.bools {
			got.bools[i] = r.Bool()
		}
		for i := range got.bernoulli {
			got.bernoulli[i] = r.Bernoulli(0.5)
		}
		got.after = r.Uint64()
		if got != want {
			t.Errorf("seed %#x:\n got %+v\nwant %+v", want.seed, got, want)
		}
	}
}
