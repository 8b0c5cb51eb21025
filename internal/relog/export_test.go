package relog

// CheckNoAliasing exposes checkNoAliasing to the external tests, which
// record their logs through packages that import this one.
var CheckNoAliasing = checkNoAliasing
