package annotations

// A //detvet: token that no analyzer reads silences nothing and checks
// nothing, so the driver reports it: here the retired pincheck analyzer's
// suppression, and lockcheck's retired blocking effect.

//detvet:pincheck the buffer is owned by the record // want "unknown annotation //detvet:pincheck"
var owned []byte

//detvet:blocks // want "unknown annotation //detvet:blocks"
func waitTurn() {}

// A token an analyzer reads passes.
var m = map[int]int{}

//detvet:orderfree the sum commutes
var sum = func() (n int) {
	for _, v := range m {
		n += v
	}
	return n
}()
