package mem

// Run is a maximal run of modified bytes: the value Data was written starting
// at address Addr. Runs are the byte-granularity <addr, data> modification
// pairs of §4.2, batched into contiguous spans for efficiency. Byte
// granularity is required for correctness under the C++ memory model (§4.6);
// the batching does not change semantics because a run is exactly a sequence
// of adjacent single-byte modifications.
type Run struct {
	Addr uint64
	Data []byte
}

// End returns the first address past the run.
func (r Run) End() uint64 { return r.Addr + uint64(len(r.Data)) }

// DiffPage compares a page snapshot against the page's current contents and
// returns the modification runs (the page-diffing step at slice end, §4.2),
// scanning the whole page. The runtimes diff their page records with
// DiffPageExtents; this is the tests' reference for it.
// Bytes whose final value equals the snapshot value are excluded — including
// bytes that were overwritten with the same value — which is what implements
// the deterministic "prefer local writes when the remote write is redundant"
// conflict policy discussed in §4.6.
//
// Only the common prefix of snapshot and current is compared: when the
// snapshot is shorter than the page, the tail beyond len(snapshot) has no
// baseline to diff against and is deliberately ignored (it contributes no
// runs). Snapshots taken by Space.Snapshot are always full pages, so the
// truncated case arises only for callers that snapshot partial pages.
func DiffPage(pageID PageID, snapshot, current []byte) []Run {
	base := PageAddr(pageID)
	var runs []Run
	i := 0
	n := len(current)
	if len(snapshot) < n {
		n = len(snapshot)
	}
	for i < n {
		if snapshot[i] == current[i] {
			i++
			continue
		}
		j := i + 1
		for j < n && snapshot[j] != current[j] {
			j++
		}
		data := make([]byte, j-i)
		copy(data, current[i:j])
		runs = append(runs, Run{Addr: base + uint64(i), Data: data})
		i = j
	}
	return runs
}

// DiffPageExtents is DiffPage restricted to the page's dirty extents: only
// the bytes inside exts are compared against the snapshot, making the diff
// O(written bytes) instead of O(page size). It produces *byte-for-byte
// identical* runs to DiffPage provided exts is a sorted, coalesced,
// gap-separated superset of the bytes modified since the snapshot (the
// invariant Space's dirty tracking maintains):
//
//   - every byte outside all extents was never written, so it equals the
//     snapshot and would not start or extend a run in DiffPage either;
//   - coalescing leaves at least one clean byte between extents, so no
//     maximal run of differing bytes can cross an extent boundary;
//   - the byte-by-byte comparison inside each extent excludes same-value
//     overwrites exactly as DiffPage does, preserving the §4.6 "prefer
//     local when the remote write is redundant" policy.
//
// Like DiffPage, only the common prefix of snapshot and current is
// compared: extents are clamped to min(len(snapshot), len(current)).
func DiffPageExtents(pageID PageID, snapshot, current []byte, exts []Extent) []Run {
	// ExtentBytes bounds the payload, so the runs share one block.
	runs, _ := AppendDiffPageExtents(nil, make([]byte, 0, ExtentBytes(exts)), pageID, snapshot, current, exts)
	return runs
}

// AppendDiffPageExtents is DiffPageExtents into caller-owned storage: runs
// are appended to runs, their payload bytes to buf, and both are returned.
// Each Run.Data is a full-slice expression over its bytes in buf, so appending
// to one run never reaches its neighbour. With ExtentBytes(exts) of spare
// capacity buf is never reallocated, so a caller that sizes it for every page
// first diffs them all into one staging buffer (the runtime's finishSlice); a
// short buf is slower, not wrong: emitted runs keep the array they were carved
// from.
func AppendDiffPageExtents(runs []Run, buf []byte, pageID PageID, snapshot, current []byte, exts []Extent) ([]Run, []byte) {
	base := PageAddr(pageID)
	n := min(len(current), len(snapshot))
	for _, e := range exts {
		i := int(e.Off)
		end := min(int(e.End()), n)
		for i < end {
			if snapshot[i] == current[i] {
				i++
				continue
			}
			j := i + 1
			for j < end && snapshot[j] != current[j] {
				j++
			}
			at := len(buf)
			buf = append(buf, current[i:j]...)
			runs = append(runs, Run{Addr: base + uint64(i), Data: buf[at:len(buf):len(buf)]})
			i = j
		}
	}
	return runs, buf
}

// RunBytes returns the total number of modified bytes across runs.
func RunBytes(runs []Run) uint64 {
	var n uint64
	for _, r := range runs {
		n += uint64(len(r.Data))
	}
	return n
}

// ApplyRuns writes the modification runs into the space, taking no fault:
// propagation applies remote modifications between
// slices, so the writes must not be monitored as local modifications
// (§4.3). In-order application makes later runs overwrite earlier ones,
// implementing the deterministic "remote modifications overwrite local
// modifications" conflict policy.
func (s *Space) ApplyRuns(runs []Run) {
	for _, r := range runs {
		s.applyRun(r)
	}
}

func (s *Space) applyRun(r Run) {
	a := r.Addr
	data := r.Data
	for len(data) > 0 {
		id := PageOf(a)
		off := a & PageMask
		n := copy(s.writablePage(id).Data[off:], data)
		data = data[n:]
		a += uint64(n)
	}
}
