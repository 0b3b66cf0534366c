package maintain

// The Figure-1 fixture, for the external golden-plan test (which imports
// internal/bench and so cannot live in this package).
var (
	Fig1Schema = fig1Schema
	Fig1Array  = fig1Array
	Fig1Delta  = fig1Delta
	Fig1Def    = fig1Def
)
