// Package orphan is imported by no non-test file.
package orphan

// Lonely is not reported on its own: the whole package is.
func Lonely() int { return 0 }
