// Package other is outside internal/, where wallclock does not apply:
// cmd tools may time themselves.
package other

import "time"

func stopwatch() time.Time { return time.Now() }
