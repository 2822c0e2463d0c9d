package knobfix

import "testing"

func TestKnobs(t *testing.T) {
	k := NewKnobs()
	k.Unset = 1 // a test's write does not count
	if k.Bump().A != 1 {
		t.Fail()
	}
}
