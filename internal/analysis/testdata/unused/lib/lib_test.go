package unusedfix

import "testing"

func TestLib(t *testing.T) {
	if TestOnly() != 0 || Remote() == "" {
		t.Fail()
	}
}
