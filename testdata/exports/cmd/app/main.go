// Command app is the fixture's one shipped binary.
package main

import "fixture/internal/used"

func main() { println(used.Used()) }
