package main

import (
	"testing"

	"fixture/internal/orphan"
)

// A test import does not make orphan a shipped package.
func TestOrphan(t *testing.T) { _ = orphan.Lonely() }
