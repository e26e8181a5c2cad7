//go:build race

package fastreg

const raceEnabled = true
