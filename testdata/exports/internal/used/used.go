// Package used holds one export of each kind the check judges.
package used

// Used has a shipped caller in cmd/app.
func Used() int { return helper() }

func helper() int { return 1 }

// Planted calls only itself, which is no caller.
func Planted(n int) int {
	if n == 0 {
		return 0
	}
	return Planted(n - 1)
}

// Receiver is named only as its method's receiver.
type Receiver struct{}

// Value is a method only the test calls, so no binary links it.
func (r *Receiver) Value() int { return 3 }

// unlinked is an unexported helper only the test calls.
func unlinked() int { return 5 }

// Oracle has only a test caller and an allow-list entry.
func Oracle() int { return 4 }
