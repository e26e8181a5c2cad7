//go:build race

package opkit_test

const raceEnabled = true
