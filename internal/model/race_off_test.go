//go:build !race

package model_test

const raceEnabled = false
