package main

import "testing"

// TestExample runs the walk-through end to end: an error exits non-zero,
// so a broken example fails go test.
func TestExample(t *testing.T) { main() }
