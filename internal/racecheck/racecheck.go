// Package racecheck implements a dynamic happens-before data-race detector
// over DLRC executions. DLRC already computes everything such a detector
// needs: every slice carries a vector-clock timestamp (internal/vclock) and a
// byte-granularity modification list (internal/mem), and the runtime adds
// per-slice read sets when Options.RaceDetect is on. Two accesses race when
// their slices' clocks are Concurrent (neither happens-before the other) and
// their byte ranges overlap with at least one side writing — the classic
// happens-before definition, evaluated post-hoc over recorded slices rather
// than online per access.
//
// The detector is strictly observational: it charges no virtual time, emits
// no trace events, and never changes what the program computes. Because the
// slices themselves (clocks, modification lists, arrival order at the
// monitor) are deterministic under DLRC, the race report is a deterministic
// function of the program — the same program yields a byte-identical report
// on every run and every GOMAXPROCS, which is what makes the report usable
// as a CI artifact.
//
// One documented blind spot: modification lists exclude bytes overwritten
// with their snapshot value (§4.6 redundant-write exclusion), so a write/
// write race where the racing stores happen to produce identical bytes — or
// disjoint changed bytes within one word, as in the byte-merge litmus — is
// invisible at byte granularity. That is inherent to DLRC's byte-level
// semantics, not a detector bug; see DESIGN.md §12.
package racecheck

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"rfdet/internal/mem"
	"rfdet/internal/vclock"
)

// Range is a half-open byte range [Addr, Addr+Len) in the shared address
// space.
type Range struct {
	Addr uint64
	Len  uint64
}

// End returns the first address past the range.
func (r Range) End() uint64 { return r.Addr + r.Len }

// Access records one slice's memory footprint: the bytes it wrote (from the
// slice's modification list) and the bytes it read (from the read tracker),
// stamped with the slice's end-time vector clock. VT is the owning thread's
// deterministic logical end time, used only to order and label reports.
type Access struct {
	Tid    int32
	VT     uint64
	Clock  vclock.VC
	Writes []Range
	Reads  []Range
	// Atomic marks a §4.6 low-level-atomic micro-operation. Two atomic
	// accesses never race with each other even when their clocks are
	// concurrent: the Kendo turn plus the word's internal synchronization
	// variable totally order them, exactly as C++ atomics are exempt from
	// the data-race definition. Atomic-vs-plain conflicts still use the
	// clocks — mixing atomic and plain accesses to one location without
	// happens-before ordering is a race.
	Atomic bool
}

// Kind classifies a race by the access types on its two sides.
type Kind uint8

const (
	// WriteWrite is a write/write conflict.
	WriteWrite Kind = iota
	// ReadWrite is a read/write conflict (either side may be the reader).
	ReadWrite
)

func (k Kind) String() string {
	if k == WriteWrite {
		return "write/write"
	}
	return "read/write"
}

// Race is one detected conflict: a byte range touched by two concurrent
// slices with at least one side writing. Side 1 is the side with the smaller
// (VT, Tid) — a canonical order, since clocks of concurrent slices give no
// order. All fields are comparable so races deduplicate via a map key.
type Race struct {
	Kind   Kind
	Addr   uint64
	Len    uint64
	Tid1   int32
	VT1    uint64
	Clock1 string
	Tid2   int32
	VT2    uint64
	Clock2 string
}

func (r Race) String() string {
	return fmt.Sprintf("%s race at [0x%x,0x%x): thread %d@vt=%d %s <-> thread %d@vt=%d %s",
		r.Kind, r.Addr, r.Addr+r.Len, r.Tid1, r.VT1, r.Clock1, r.Tid2, r.VT2, r.Clock2)
}

// Report is the deduplicated, deterministically ordered race list of one
// execution.
type Report struct {
	// Races is sorted by (VT1, Tid1, VT2, Tid2, Addr, Len, Kind).
	Races []Race
	// AccessesRecorded counts the slice access records analyzed.
	AccessesRecorded uint64
}

// String renders the report in its canonical text form — the byte-identical
// artifact CI diffs across GOMAXPROCS values.
func (rep *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "races: %d (accesses analyzed: %d)\n", len(rep.Races), rep.AccessesRecorded)
	for _, r := range rep.Races {
		b.WriteString("  ")
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Hash returns a 64-bit FNV-1a digest of the canonical text form.
func (rep *Report) Hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(rep.String()))
	return h.Sum64()
}

// Detector accumulates slice access records and analyzes them at the end of
// the run. Its calls are the caller's to serialize: the runtime records only
// under the deterministic turn, inside its monitor, and analyzes in the
// report it builds there. The report's order comes from Analyze's
// deterministic sort, never from arrival order, so it stays byte-identical.
type Detector struct {
	accesses []Access
}

// New returns an empty detector.
func New() *Detector { return &Detector{} }

// Record adds one slice's access footprint. Records with no reads and no
// writes are dropped — they cannot participate in any conflict. The caller
// must pass a Clock the detector may retain (clone before mutating).
func (d *Detector) Record(a Access) {
	if len(a.Writes) == 0 && len(a.Reads) == 0 {
		return
	}
	d.accesses = append(d.accesses, a)
}

// Analyze computes the race report over all recorded accesses. A nil
// detector (race detection off) yields nil.
func (d *Detector) Analyze() *Report {
	if d == nil {
		return nil
	}
	acc := make([]Access, len(d.accesses))
	copy(acc, d.accesses)
	// Records arrive in deterministic turn order already, but sorting by
	// (VT, Tid) makes the report independent even of *how* the runtime
	// interleaved commits, and fixes the canonical side-1/side-2 labeling.
	sort.SliceStable(acc, func(i, j int) bool {
		if acc[i].VT != acc[j].VT {
			return acc[i].VT < acc[j].VT
		}
		return acc[i].Tid < acc[j].Tid
	})
	seen := make(map[Race]struct{})
	var races []Race
	add := func(k Kind, overlap []Range, lo, hi *Access) {
		for _, o := range overlap {
			r := Race{
				Kind: k, Addr: o.Addr, Len: o.Len,
				Tid1: lo.Tid, VT1: lo.VT, Clock1: lo.Clock.String(),
				Tid2: hi.Tid, VT2: hi.VT, Clock2: hi.Clock.String(),
			}
			if _, dup := seen[r]; !dup {
				seen[r] = struct{}{}
				races = append(races, r)
			}
		}
	}
	for i := range acc {
		for j := i + 1; j < len(acc); j++ {
			a, b := &acc[i], &acc[j]
			if a.Tid == b.Tid {
				continue // same thread: program order, never concurrent
			}
			if a.Atomic && b.Atomic {
				continue // atomics are totally ordered by the arbiter
			}
			if a.Clock.Compare(b.Clock) != vclock.Unordered {
				continue // ordered by happens-before
			}
			add(WriteWrite, Intersect(a.Writes, b.Writes), a, b)
			add(ReadWrite, Intersect(a.Reads, b.Writes), a, b)
			add(ReadWrite, Intersect(a.Writes, b.Reads), a, b)
		}
	}
	sort.Slice(races, func(i, j int) bool {
		a, b := races[i], races[j]
		if a.VT1 != b.VT1 {
			return a.VT1 < b.VT1
		}
		if a.Tid1 != b.Tid1 {
			return a.Tid1 < b.Tid1
		}
		if a.VT2 != b.VT2 {
			return a.VT2 < b.VT2
		}
		if a.Tid2 != b.Tid2 {
			return a.Tid2 < b.Tid2
		}
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Len != b.Len {
			return a.Len < b.Len
		}
		return a.Kind < b.Kind
	})
	return &Report{Races: races, AccessesRecorded: uint64(len(acc))}
}

// Intersect returns the overlapping ranges of two sorted, coalesced,
// non-overlapping range lists via a merge scan. The result is itself sorted
// and non-overlapping.
func Intersect(xs, ys []Range) []Range {
	var out []Range
	i, j := 0, 0
	for i < len(xs) && j < len(ys) {
		lo := xs[i].Addr
		if ys[j].Addr > lo {
			lo = ys[j].Addr
		}
		hi := xs[i].End()
		if e := ys[j].End(); e < hi {
			hi = e
		}
		if lo < hi {
			out = append(out, Range{Addr: lo, Len: hi - lo})
		}
		if xs[i].End() <= ys[j].End() {
			i++
		} else {
			j++
		}
	}
	return out
}

// Normalize sorts rs by address and merges overlapping or touching ranges in
// place, returning the coalesced list (nil input stays nil).
func Normalize(rs []Range) []Range {
	if len(rs) <= 1 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Addr < rs[j].Addr })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Addr <= last.End() {
			if r.End() > last.End() {
				last.Len = r.End() - last.Addr
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// RangesFromRuns converts a slice's modification list into address ranges.
// Runs are already sorted, coalesced and non-overlapping.
func RangesFromRuns(runs []mem.Run) []Range {
	if len(runs) == 0 {
		return nil
	}
	out := make([]Range, 0, len(runs))
	for _, r := range runs {
		if len(r.Data) == 0 {
			continue
		}
		out = append(out, Range{Addr: r.Addr, Len: uint64(len(r.Data))})
	}
	return out
}

// RangesFromExtents converts one page's extent list (page-local offsets) into
// absolute address ranges appended to dst.
func RangesFromExtents(dst []Range, id mem.PageID, exts []mem.Extent) []Range {
	base := mem.PageAddr(id)
	for _, e := range exts {
		dst = append(dst, Range{Addr: base + uint64(e.Off), Len: uint64(e.Len)})
	}
	return dst
}
