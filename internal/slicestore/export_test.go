package slicestore

// Used returns the current metadata-space usage in bytes.
func (st *Store) Used() uint64 { return uint64(st.used.Load()) }

// Live returns the number of live slices.
func (st *Store) Live() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.slices)
}
