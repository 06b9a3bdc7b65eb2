package mem

// PrivateBytes returns the bytes of pages exclusively owned by this space
// (copied rather than shared), the per-thread extra footprint of §5.4.
func (s *Space) PrivateBytes() uint64 {
	var n uint64
	//detvet:orderfree commutative sum over pages.
	for _, p := range s.pages {
		if !p.Shared() {
			n += PageSize
		}
	}
	return n
}
