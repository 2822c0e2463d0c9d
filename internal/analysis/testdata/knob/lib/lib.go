// Package knobfix is the knob sweep's fixture.
package knobfix

// Knobs holds one field of each kind the sweep tells apart.
type Knobs struct {
	Unset  int     // want `knobfix.Knobs.Unset is never set outside tests`
	Fixed  float64 // want `knobfix.Knobs.Fixed is set only by NewKnobs, always to 0.5`
	Tuned  float64 // its constructor's value, and retuned outside it
	Either int     // two constructors, two constants
	Remote bool    // set only from the second package
	Addr   int     // set through its address
	Count  int     // incremented
}

// Pair is set by a positional literal.
type Pair struct{ A, B int }

// listed is unexported, so its exported field is out of scope, like
// the structs a JSON decoder fills.
type listed struct {
	ImportPath string
}

func NewKnobs() *Knobs {
	return &Knobs{Fixed: 0.5, Tuned: 1, Either: 1}
}

func NewWideKnobs() *Knobs {
	return &Knobs{Fixed: 1.0 / 2, Tuned: 1, Either: 2}
}

func (k *Knobs) Retune() { k.Tuned *= 2 }

func (k *Knobs) Bump() Pair {
	k.Count++
	set(&k.Addr)
	return Pair{k.Count, k.Addr}
}

func set(p *int) { *p = 1 }

func (l listed) path() string { return l.ImportPath }
