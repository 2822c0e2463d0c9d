// Package unusedfix is the unused-declaration sweep's fixture.
package unusedfix

import "fmt"

// Remote is called only from the second package, a separate load.
func Remote() string { return fmt.Sprint(box{}) + describe(square{2}) }

// TestOnly is exported, but only lib_test.go calls it.
func TestOnly() int { return 0 } // want `unusedfix.TestOnly has no reference`

// leftover is the helper a deleted caller left behind. Its call to
// itself does not count.
func leftover(n int) int { // want `unusedfix.leftover has no reference`
	if n == 0 {
		return 0
	}
	return leftover(n - 1)
}

type box struct{}

// String is reached only through fmt.Stringer.
func (box) String() string { return "box" }

// sizer is declared here; square's Size is reached only through it.
type sizer interface{ Size() int }

type square struct{ side int }

func (s square) Size() int { return s.side * s.side }

func describe(s sizer) string { return fmt.Sprint(s.Size()) }
