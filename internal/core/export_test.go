package core

// RecordInjecting is Record with before called on the machine's observer
// just before the machine runs.
var RecordInjecting = recordRun
