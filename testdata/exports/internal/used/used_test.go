package used

import "testing"

// Test references do not count as callers.
func TestUsed(t *testing.T) {
	if Planted(2)+Oracle()+(&Receiver{}).Value()+unlinked() != 12 {
		t.Fatal("fixture arithmetic")
	}
}
