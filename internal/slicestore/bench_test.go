package slicestore

import (
	"testing"

	"rfdet/internal/mem"
	"rfdet/internal/vclock"
)

// BenchmarkSliceStoreChurn measures steady-state commit/collect churn — the
// metadata-space hot loop of a propagation-heavy run. Each op commits one
// slice of 16 runs; a covering Collect every 64 ops keeps the store at a
// bounded live set, exactly like a workload whose frontier keeps pace. The
// store keeps the caller's payload buffers, so the committer allocates fresh
// ones every slice, as the runtime's slice-end diff does.
func BenchmarkSliceStoreChurn(b *testing.B) {
	const runsPerSlice = 16
	const runBytes = 256
	const collectEvery = 64

	st := NewStore(1 << 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mods := make([]mem.Run, runsPerSlice)
		for r := range mods {
			data := make([]byte, runBytes)
			mods[r] = mem.Run{Addr: uint64(r * runBytes), Data: data}
		}
		s := &Slice{
			Tid:   int32(i % 4),
			Time:  vclock.VC{uint64(i + 1)},
			Mods:  mods,
			Bytes: runsPerSlice * runBytes,
		}
		st.Commit(s)
		if i%collectEvery == collectEvery-1 {
			st.Collect(vclock.VC{uint64(i + 1)})
		}
	}
}
