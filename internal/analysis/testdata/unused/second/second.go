// Package second stands in for a second module that calls the fixture.
package second

import "github.com/sjtu-epcc/arena/internal/unusedfix"

var _ = unusedfix.Remote()
