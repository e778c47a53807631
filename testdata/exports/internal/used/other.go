//go:build s390x

package used

// Other is built only for s390x, and no binary calls it there either. A
// host of another architecture does not compile this file, so the check
// does not judge it.
func Other() int { return 6 }
