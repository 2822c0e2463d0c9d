// Package second stands in for a second module that sets a fixture
// field.
package second

import "github.com/sjtu-epcc/arena/internal/knobfix"

// Quiet sets the field nothing in the fixture sets.
func Quiet(k *knobfix.Knobs) { k.Remote = true }
