package pincheck

// Local analogs of the runtime's paired resources: epoch pins
// (slicestore.Pin), arena chunks (alloc.ChunkPool), snapshot buffers (mem's
// GetPageBuf / Space.Snapshot → PutPageBuf) and the patches and plans mem
// recycles whole (NewPagePatch, BuildPlan → Release). pincheck matches them
// by name so the fixture can stand in for the real packages.

type Pin struct {
	id uint64
}

func (p Pin) Release() {}

type store struct{}

func (s *store) Pin() Pin { return Pin{id: 1} }

type ChunkPool struct{}

func (c *ChunkPool) Get() []byte  { return nil }
func (c *ChunkPool) Put(b []byte) {}

func GetPageBuf() []byte  { return make([]byte, 4096) }
func PutPageBuf(b []byte) {}

type Space struct{}

func (s *Space) Snapshot(id int) []byte { return GetPageBuf() }

type PagePatch struct{}

func NewPagePatch(id int) *PagePatch { return &PagePatch{} }
func (p *PagePatch) Release()        {}

type WritePlan struct{}

func BuildPlan(mods [][]byte) *WritePlan { return &WritePlan{} }
func (p *WritePlan) Release()            {}
func (s *Space) ApplyPlan(p *WritePlan)  {}

func work() {}

// --- balanced paths: no diagnostics ---

func balanced(s *store) {
	p := s.Pin()
	work()
	p.Release()
}

func balancedDefer(s *store) {
	p := s.Pin()
	defer p.Release()
	work()
}

func balancedBothBranches(s *store, cond bool) {
	p := s.Pin()
	if cond {
		p.Release()
		return
	}
	p.Release()
}

func loopBalanced(s *store, n int) {
	for i := 0; i < n; i++ {
		p := s.Pin()
		p.Release()
	}
}

func chunkBalanced(pool *ChunkPool) {
	c := pool.Get()
	defer pool.Put(c)
	work()
}

func pageBufBalanced(s *Space) {
	b := GetPageBuf()
	PutPageBuf(b)
	snap := s.Snapshot(0)
	defer PutPageBuf(snap)
	work()
}

func patchBalanced() {
	p := NewPagePatch(1)
	work()
	p.Release()
}

// Applying a plan hands it to a callee: the analyzer stops tracking there
// (ownership transfer), so the release after it is not required of it.
func planAppliedThenReleased(s *Space) {
	plan := BuildPlan(nil)
	s.ApplyPlan(plan)
	plan.Release()
}

// --- leaks ---

func leakEarlyReturn(s *store, cond bool) {
	p := s.Pin() // want "may still be live at this return"
	if cond {
		return
	}
	p.Release()
}

func leakFallOff(s *store) {
	p := s.Pin() // want "may still be live at the end of leakFallOff"
	_ = p.id
}

func leakOneBranch(s *store, cond bool) {
	p := s.Pin() // want "may still be live"
	if cond {
		p.Release()
	}
}

func chunkLeak(pool *ChunkPool, n int) {
	c := pool.Get() // want "may still be live"
	if n > 0 {
		pool.Put(c)
	}
}

func pageBufLeak(cond bool) {
	b := GetPageBuf() // want "may still be live"
	if cond {
		return
	}
	PutPageBuf(b)
}

func snapshotLeak(s *Space, cond bool) {
	snap := s.Snapshot(0) // want "may still be live"
	if cond {
		PutPageBuf(snap)
	}
}

func patchLeak(cond bool) {
	p := NewPagePatch(1) // want "may still be live at this return"
	if cond {
		return
	}
	p.Release()
}

func planDiscarded() {
	BuildPlan(nil) // want "result of this call is discarded"
}

func discarded(s *store) {
	s.Pin() // want "result of this call is discarded"
}

func blanked(s *store) {
	_ = s.Pin() // want "never released"
}

func reassigned(s *store) {
	p := s.Pin()
	p = s.Pin() // want "reassignment of p while the previous epoch pin"
	p.Release()
}
