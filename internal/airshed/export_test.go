package airshed

// For the external tests (package airshed_test), which import core and
// farm: both import this package.
var (
	LegacySequential   = legacySequential
	RunDistributedCost = runDistributedCost
	SameBits           = sameBits
)
