//go:build !race

package opkit_test

const raceEnabled = false
