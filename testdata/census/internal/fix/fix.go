// Package fix is the object census's fixture: main.go is the program
// that reads it, and TestInternalCensusFixture names what it must find.
package fix

// Orphan is read by nothing.
func Orphan() {}

// Square and Circle both declare Area; the program reads only
// Circle's, so Square's is an orphan a scan by name cannot see.
type Square struct{}

func (Square) Area() int { return 1 }

type Circle struct{}

func (Circle) Area() int { return 3 }

// Sizer is the named interface through which Disk.Len is reached.
type Sizer interface{ Len() int }

// Disk's Len is reached only through Sizer, and its SetFault only
// through an interface literal in a type assertion.
type Disk struct{ faulty bool }

func (d *Disk) Len() int { return 1 }

func (d *Disk) SetFault(on bool) { d.faulty = on }
