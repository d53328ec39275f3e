//go:build !race

package pciesim

const raceEnabled = false
