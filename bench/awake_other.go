//go:build !linux

package main

func keepAwake() (stop func(), note string) {
	return func() {}, "CPU not kept awake: only done on Linux"
}

func spin() int { return 1 }
