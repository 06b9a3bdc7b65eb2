package mem

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// hashShapes are the page contents Space.Hash meets: a page never written
// after its first store, matmul's small integers, float64s and random bytes.
var hashShapes = []struct {
	name string
	fill func(p []byte, r *rand.Rand)
}{
	{"zero", func([]byte, *rand.Rand) {}},
	{"sparse", func(p []byte, r *rand.Rand) {
		for i := 0; i < len(p); i += 8 {
			binary.LittleEndian.PutUint64(p[i:], uint64(r.Intn(100)))
		}
	}},
	{"dense", func(p []byte, r *rand.Rand) {
		for i := 0; i < len(p); i += 8 {
			binary.LittleEndian.PutUint64(p[i:], math.Float64bits(r.NormFloat64()*1e3))
		}
	}},
	{"random", func(p []byte, r *rand.Rand) { r.Read(p) }},
}

// spaceOf is a space with pages ids resident, each filled by fill.
func spaceOf(ids []PageID, fill func([]byte, *rand.Rand), r *rand.Rand) *Space {
	s := NewSpace()
	page := make([]byte, PageSize)
	for _, id := range ids {
		clear(page)
		fill(page, r)
		s.WriteBytes(PageAddr(id), page)
	}
	if len(s.pages) != len(ids) {
		panic("spaceOf: a page was not mapped")
	}
	return s
}

// fnvReference is Space.Hash as hash/fnv computes it: each resident page's
// id, little-endian, then its bytes, in ascending page order.
func fnvReference(s *Space) uint64 {
	h := fnv.New64a()
	var id [8]byte
	s.Pages(func(pid PageID, p *Page) {
		binary.LittleEndian.PutUint64(id[:], uint64(pid))
		h.Write(id[:])
		h.Write(p.Data[:])
	})
	return h.Sum64()
}

// TestSpaceHashIsFNV1a: Space.Hash is FNV-1a over the resident pages, on
// every page shape and on page sets that are empty, single, scattered and
// past the page cache.
func TestSpaceHashIsFNV1a(t *testing.T) {
	sets := map[string][]PageID{
		"empty":     nil,
		"one":       {7},
		"scattered": {3, 1, 1 << 20, 40, 41},
		"many":      nil,
	}
	for id := PageID(0); id < 3*pageCacheSize; id++ {
		sets["many"] = append(sets["many"], id)
	}
	r := rand.New(rand.NewSource(1))
	for _, shape := range hashShapes {
		for name, ids := range sets {
			s := spaceOf(ids, shape.fill, r)
			if got, want := s.Hash(), fnvReference(s); got != want {
				t.Errorf("%s pages, %s set: Hash = %#x, hash/fnv %#x", shape.name, name, got, want)
			}
			s.Release()
		}
	}
	// Every byte value at every position of a word, among zeros.
	for pos := 0; pos < 16; pos++ {
		for _, v := range []byte{1, 0x80, 0xFF} {
			s := NewSpace()
			s.Store8(PageAddr(5)+uint64(pos), v)
			if got, want := s.Hash(), fnvReference(s); got != want {
				t.Errorf("byte %#x at %d: Hash = %#x, hash/fnv %#x", v, pos, got, want)
			}
			s.Release()
		}
	}
}

var hashSink uint64

// BenchmarkSpaceHash hashes one resident page of each shape.
func BenchmarkSpaceHash(b *testing.B) {
	for _, shape := range hashShapes {
		b.Run(shape.name, func(b *testing.B) {
			s := spaceOf([]PageID{1}, shape.fill, rand.New(rand.NewSource(1)))
			defer s.Release()
			b.SetBytes(PageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hashSink = s.Hash()
			}
		})
	}
}
