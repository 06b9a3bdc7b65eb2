package core

import (
	"fmt"

	"rfdet/internal/slicestore"
	"rfdet/internal/vclock"
)

// validateLocked checks the structural DLRC invariants after an execution
// finishes (enabled with Options.Validate; used by the test suite). The
// checks run over whatever state garbage collection has retained — the
// invariants are preserved by collection, which only removes
// globally-dominated slices.
//
//detvet:holds exec.mu
func (e *exec) validateLocked() error {
	// 0. Every collection of the run returned what the paper's whole-list
	//    scan returns (collectLocked compared them as it went).
	if e.collectErr != nil {
		return e.collectErr
	}
	// Slice timestamps are globally unique: the propagation filters depend
	// on timestamps distinguishing slices.
	seen := make(map[string]*slicestore.Slice)
	for _, t := range e.threads {
		for _, s := range t.slicePtrs {
			key := s.Time.String() + "#" + fmt.Sprint(s.Tid)
			if prev, ok := seen[key]; ok && prev != s {
				return fmt.Errorf("rfdet: validate: two distinct slices by thread %d share timestamp %s",
					s.Tid, s.Time)
			}
			seen[key] = s
		}
	}
	// The creator-component test collectLocked filters with (seenBy) agrees
	// with the full vector-clock comparison for every listed slice against
	// every thread's final clock. This runs before the repeat check, which
	// the server programs fail under Prelock (ROADMAP item 7), so that it runs
	// on them too.
	for _, t := range e.threads {
		for _, s := range t.slicePtrs {
			for _, r := range e.threads {
				v := r.finalClock()
				if seenBy(s, v) != s.Time.Leq(v) {
					return fmt.Errorf("rfdet: validate: slice %s by thread %d against thread %d's clock %s: creator component says %t, vector clock says %t",
						s.Time, s.Tid, r.id, v, seenBy(s, v), s.Time.Leq(v))
				}
			}
		}
	}
	for _, t := range e.threads {
		// A slice is listed at most once. The cond-signal path breaks this
		// under Prelock (DESIGN.md §6): the signal's acquire clears what the
		// mutex queue pre-merged, and the mutex acquire that follows lists
		// those slices again. A repeat out of order is what invariant 1
		// reported on the server programs.
		at := make(map[*slicestore.Slice]int, len(t.slicePtrs))
		for i, s := range t.slicePtrs {
			if j, ok := at[s]; ok {
				return fmt.Errorf("rfdet: validate: thread %d lists slice %d#%d twice, at positions %d and %d",
					t.id, s.Tid, s.Time.Get(int(s.Tid)), j, i)
			}
			at[s] = i
		}
		// 1. The slice-pointer list respects happens-before: a slice never
		//    appears after one that happens-after it, because propagation
		//    appends remote slices in the releaser's (already consistent)
		//    order and local slices as they are created (§4.3).
		for i := 0; i < len(t.slicePtrs); i++ {
			for j := i + 1; j < len(t.slicePtrs); j++ {
				si, sj := t.slicePtrs[i], t.slicePtrs[j]
				if sj.Time.Less(si.Time) {
					return fmt.Errorf("rfdet: validate: thread %d list order violates happens-before: %s (pos %d) after %s (pos %d)",
						t.id, sj.Time, j, si.Time, i)
				}
			}
		}
		// 2. Everything in the list happened-before the thread's final
		//    instruction: the thread has provably seen each slice.
		final := t.finalClock()
		for _, s := range t.slicePtrs {
			if !s.Time.Leq(final) {
				return fmt.Errorf("rfdet: validate: thread %d holds slice %s not happened-before its clock %s",
					t.id, s.Time, final)
			}
		}
		// 3. A thread's own slices appear in strictly increasing order of
		//    its own clock component.
		var last uint64
		for _, s := range t.slicePtrs {
			if s.Tid != int32(t.id) {
				continue
			}
			own := s.Time.Get(int(t.id))
			if own <= last {
				return fmt.Errorf("rfdet: validate: thread %d own slices out of order (component %d after %d)",
					t.id, own, last)
			}
			last = own
		}
		// 4. The window invariant of collectLocked: the prefix of this list
		//    below a reader's low-water mark holds only slices that reader
		//    has seen, so skipping it skips nothing the lowerlimit filter
		//    would keep.
		for _, r := range e.threads {
			mark, seen := t.markFor(r.id), r.finalClock()
			if mark > len(t.slicePtrs) {
				return fmt.Errorf("rfdet: validate: thread %d mark %d on thread %d's list of %d slices",
					r.id, mark, t.id, len(t.slicePtrs))
			}
			for _, s := range t.slicePtrs[:mark] {
				if !s.Time.Leq(seen) {
					return fmt.Errorf("rfdet: validate: thread %d mark %d on thread %d's list covers slice %s not happened-before its clock %s",
						r.id, mark, t.id, s.Time, seen)
				}
			}
		}
	}
	return nil
}

// finalClock is the clock of the thread's last instruction: its exit release
// once it has exited, its live clock before.
func (t *thread) finalClock() vclock.VC {
	if t.exitV != nil {
		return t.exitV
	}
	return t.vtime
}
