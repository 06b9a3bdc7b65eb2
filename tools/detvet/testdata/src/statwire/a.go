package statwire

// The fixture package plays every role the real repo splits across
// packages: it declares the Stats struct (api), increments counters (core)
// and surfaces them (harness/cmd). The test runner points all of statwire's
// configured package paths here.

// Stats is the fixture's observability contract.
type Stats struct {
	Wired       int64
	NeverBumped int64 // want "never incremented"
	NeverShown  int64 // want "never surfaced"
	Parked      int64 //detvet:statwire kept for report-format compatibility
}

// Add aggregates another Stats into s. Writes and reads inside Stats
// methods prove nothing: Add touches every field by construction.
func (s *Stats) Add(o *Stats) {
	s.Wired += o.Wired
	s.NeverBumped += o.NeverBumped
	s.NeverShown += o.NeverShown
	s.Parked += o.Parked
}

// bump is the "runtime" incrementing its counters.
func bump(s *Stats) {
	s.Wired++
	s.NeverShown++
}

// show is the "harness" surfacing counters in a report table.
func show(s *Stats) int64 {
	return s.Wired + s.NeverBumped
}
