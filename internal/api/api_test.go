package api

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"
	"testing/quick"
)

// numbered returns a Stats whose i-th field, in declaration order, is i+1.
func numbered() Stats {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := range statsFields {
		v.Field(i).SetUint(uint64(i + 1))
	}
	return s
}

// TestStatsAddAccumulatesCounters sets every field, so a field added to Stats
// is covered by its tag's merge rule without a line here.
func TestStatsAddAccumulatesCounters(t *testing.T) {
	a := numbered()
	var sum Stats
	sum.Add(&a)
	sum.Add(&a)
	i := 0
	sum.Each(func(f StatsField, v uint64) {
		want := 2 * uint64(i+1)
		if f.Max {
			want = uint64(i + 1)
		}
		if v != want {
			t.Errorf("%s = %d after adding %d twice, want %d (max %v)", f.Name, v, i+1, want, f.Max)
		}
		i++
	})
	if i != reflect.TypeOf(Stats{}).NumField() {
		t.Fatalf("Each visited %d fields, Stats has %d", i, reflect.TypeOf(Stats{}).NumField())
	}
	if n := testing.AllocsPerRun(100, func() { sum.Add(&a) }); n != 0 {
		t.Errorf("Add allocates %v times per call, want 0", n)
	}
}

// TestStatsDeterministicZeroesHostFields: Deterministic clears the host
// fields and keeps the rest, without touching its receiver.
func TestStatsDeterministicZeroesHostFields(t *testing.T) {
	s := numbered()
	d := s.Deterministic()
	if s != numbered() {
		t.Fatal("Deterministic changed its receiver")
	}
	i := 0
	d.Each(func(f StatsField, v uint64) {
		if want := uint64(i + 1); f.Host && v != 0 || !f.Host && v != want {
			t.Errorf("%s = %d (host %v)", f.Name, v, f.Host)
		}
		i++
	})
}

func TestStatsAddTakesMaxOfHighWaters(t *testing.T) {
	var sum Stats
	sum.Add(&Stats{SharedMemBytes: 100, RuntimeMemBytes: 50, MetadataBytes: 10})
	sum.Add(&Stats{SharedMemBytes: 60, RuntimeMemBytes: 200, MetadataBytes: 5})
	if sum.SharedMemBytes != 100 || sum.RuntimeMemBytes != 200 || sum.MetadataBytes != 10 {
		t.Fatalf("high-water merge wrong: %+v", sum)
	}
}

func TestMemOps(t *testing.T) {
	f := func(loads, stores uint32) bool {
		s := Stats{Loads: uint64(loads), Stores: uint64(stores)}
		return s.MemOps() == uint64(loads)+uint64(stores)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestObservationsDigest(t *testing.T) {
	rep := func(obs map[ThreadID][]uint64) *Report { return &Report{Observations: obs} }
	base := rep(map[ThreadID][]uint64{0: {1, 2}, 1: {3}})
	same := rep(map[ThreadID][]uint64{1: {3}, 0: {1, 2}})
	if base.ObservationsDigest() != same.ObservationsDigest() {
		t.Fatal("digest depends on map insertion order")
	}
	// Any change — a value, an owner, or a boundary shift — must change it.
	diffs := []*Report{
		rep(map[ThreadID][]uint64{0: {1, 2}, 1: {4}}),        // value changed
		rep(map[ThreadID][]uint64{0: {1, 2}, 2: {3}}),        // owner changed
		rep(map[ThreadID][]uint64{0: {1, 2, 3}, 1: {}}),      // boundary moved
		rep(map[ThreadID][]uint64{0: {1}, 1: {2, 3}}),        // boundary moved
		rep(map[ThreadID][]uint64{0: {1, 2}, 1: {3}, 2: {}}), // empty log added
	}
	for i, d := range diffs {
		if d.ObservationsDigest() == base.ObservationsDigest() {
			t.Fatalf("variant %d collides with the base digest", i)
		}
	}
}

// TestDigestIsFNV1a holds the fold to hash/fnv's FNV-1a over the same
// little-endian words, and to no allocation: every runtime's OutputHash is
// this fold, pinned by the seed goldens.
func TestDigestIsFNV1a(t *testing.T) {
	obs := []uint64{7, 1 << 63, 0xdeadbeef}
	ref := fnv.New64a()
	for _, v := range append([]uint64{3, uint64(len(obs))}, append(obs, 42)...) {
		ref.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	var d Digest
	if n := testing.AllocsPerRun(10, func() { d = NewDigest().Log(3, obs).Word(42) }); n != 0 {
		t.Errorf("the fold allocates %.0f times", n)
	}
	if uint64(d) != ref.Sum64() {
		t.Errorf("digest %#x, FNV-1a %#x", uint64(d), ref.Sum64())
	}
}

// TestNewReportFolds: the report of two threads holds both logs, their
// counters summed, the later exit time, the shared heap's high water, and an
// OutputHash that is the observations digest continued over the memory hash.
func TestNewReportFolds(t *testing.T) {
	a, b := Stats{Loads: 3, Stores: 1}, Stats{Loads: 4}
	threads := []ThreadShare{
		{ID: 0, Obs: []uint64{7, 8}, Stats: &a, ExitVT: 90},
		{ID: 1, Obs: []uint64{9}, Stats: &b, ExitVT: 120},
	}
	rep := NewReport(threads, func(s ThreadShare) ThreadShare { return s }, 0xabc, 4096, 5)
	if rep.Threads != 2 || rep.Elapsed != 5 || rep.VirtualTime != 120 || rep.Stats.Loads != 7 || rep.Stats.Stores != 1 ||
		rep.Stats.SharedMemBytes != 4096 || len(rep.Observations[0]) != 2 || rep.Observations[1][0] != 9 {
		t.Fatalf("report %+v", rep)
	}
	if want := uint64(Digest(rep.ObservationsDigest()).Word(0xabc)); rep.OutputHash != want {
		t.Errorf("OutputHash %#x, want %#x", rep.OutputHash, want)
	}
}
