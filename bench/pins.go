package main

import (
	"rfdet"
	"rfdet/internal/workloads"
)

// fingerprint is everything about one execution that DLRC makes a pure
// function of the program and its input. Every execution the benchmark
// times is compared against one, so a number can never come from a run
// that lost determinism — the precondition for believing any of them.
type fingerprint struct {
	OutputHash, VirtualTime                      uint64
	Locks, Unlocks, Waits, Signals, Forks, Joins uint64
	Barriers, Atomics                            uint64
	SlicesCreated, BytesPropagated               uint64
	StateHash, ResponseHash, Served              uint64 // kv_server only
}

func fingerprintOf(rep *rfdet.Report, server bool) (fingerprint, error) {
	st := &rep.Stats
	f := fingerprint{
		OutputHash: rep.OutputHash, VirtualTime: rep.VirtualTime,
		Locks: st.Locks, Unlocks: st.Unlocks, Waits: st.Waits, Signals: st.Signals,
		Forks: st.Forks, Joins: st.Joins, Barriers: st.Barriers, Atomics: st.AtomicsOps,
		SlicesCreated: st.SlicesCreated, BytesPropagated: st.BytesPropagated,
	}
	if server {
		sum, err := workloads.SummarizeServer(rep)
		if err != nil {
			return f, err
		}
		f.StateHash, f.ResponseHash, f.Served = sum.StateHash, sum.ResponseHash, sum.Served
	}
	return f, nil
}

// runFingerprint executes prog once under opts and returns its fingerprint.
func runFingerprint(opts rfdet.Options, prog rfdet.ThreadFunc, server bool) (fingerprint, error) {
	rep, err := rfdet.New(opts).Run(prog)
	if err != nil {
		return fingerprint{}, err
	}
	return fingerprintOf(rep, server)
}

// Pinned fingerprints at 4 worker threads under rfdet.DefaultOptions().
// pinKVServer is the request log of workloads.DefaultServerSeed and repeats
// goldenServerOutput/VTime/State/Resp of seed_regression_test.go; the three
// kernels take no input, so their pins hold at every -seed.
var (
	pinKVServer = fingerprint{
		OutputHash: 0x4e54dc625c3bc116, VirtualTime: 469638,
		Locks: 293, Unlocks: 293, Waits: 98, Signals: 193, Forks: 6, Joins: 6, Barriers: 4, Atomics: 96,
		SlicesCreated: 507, BytesPropagated: 17304,
		StateHash: 0x882c4a3e614966c9, ResponseHash: 0x809ff36626efc075, Served: 96,
	}
	pinWaterNS = fingerprint{
		OutputHash: 0xf8591d83f6e0bdb3, VirtualTime: 1977205,
		Locks: 4704, Unlocks: 4704, Waits: 18, Signals: 6, Forks: 4, Joins: 4,
		SlicesCreated: 4704, BytesPropagated: 37164,
	}
	pinFFT = fingerprint{
		OutputHash: 0x918759f64874e596, VirtualTime: 1522575,
		Locks: 52, Unlocks: 52, Waits: 39, Signals: 13, Forks: 4, Joins: 4,
		SlicesCreated: 99, BytesPropagated: 2800768,
	}
	pinMatmul = fingerprint{
		OutputHash: 0xcec7e115888aade4, VirtualTime: 388887,
		Forks: 4, Joins: 4,
		SlicesCreated: 4, BytesPropagated: 6891,
	}
)
