package annotations

// A //detvet: token that no analyzer reads silences nothing and checks
// nothing, so the driver reports it: here the retired pincheck and statwire
// analyzers' suppressions, and lockcheck's retired blocking effect and lock
// rank.

//detvet:pincheck the buffer is owned by the record // want "unknown annotation //detvet:pincheck"
var owned []byte

type Stats struct {
	Unused uint64 //detvet:statwire always 0 // want "unknown annotation //detvet:statwire"
}

//detvet:blocks // want "unknown annotation //detvet:blocks"
func waitTurn() {}

type monitor struct {
	//detvet:lockorder 10 // want "unknown annotation //detvet:lockorder"
	mu int
}

// A token an analyzer reads passes.
var m = map[int]int{}

//detvet:orderfree the sum commutes
var sum = func() (n int) {
	for _, v := range m {
		n += v
	}
	return n
}()
