// Datatypes and typed buffer management (paper §3.1.3).
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Datatype identifies an element type of a message buffer.
type Datatype uint8

const (
	// TypeByte is an uninterpreted 8-bit element (MPI_BYTE).
	TypeByte Datatype = iota
	// TypeChar is an 8-bit character element (MPI_CHAR).
	TypeChar
	// TypeInt is a 64-bit signed integer element (MPI_INT; widened to 64
	// bits as is natural in Go).
	TypeInt
	// TypeDouble is a 64-bit IEEE float element (MPI_DOUBLE).
	TypeDouble
)

// Size returns the element size in bytes.
func (d Datatype) Size() int {
	switch d {
	case TypeByte, TypeChar:
		return 1
	case TypeInt, TypeDouble:
		return 8
	default:
		panic(fmt.Sprintf("mpi: unknown datatype %d", d))
	}
}

// String names the datatype.
func (d Datatype) String() string {
	switch d {
	case TypeByte:
		return "MPI_BYTE"
	case TypeChar:
		return "MPI_CHAR"
	case TypeInt:
		return "MPI_INT"
	case TypeDouble:
		return "MPI_DOUBLE"
	default:
		return fmt.Sprintf("datatype(%d)", uint8(d))
	}
}

// Op identifies a reduction operation.
type Op uint8

const (
	// OpSum adds elements (MPI_SUM).
	OpSum Op = iota
	// OpProd multiplies elements (MPI_PROD).
	OpProd
	// OpMax takes the elementwise maximum (MPI_MAX).
	OpMax
	// OpMin takes the elementwise minimum (MPI_MIN).
	OpMin
	// OpLAnd is logical AND: nonzero is true (MPI_LAND).
	OpLAnd
	// OpLOr is logical OR (MPI_LOR).
	OpLOr
	// OpBAnd is bitwise AND on integer types (MPI_BAND).
	OpBAnd
	// OpBOr is bitwise OR on integer types (MPI_BOR).
	OpBOr
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpSum:
		return "MPI_SUM"
	case OpProd:
		return "MPI_PROD"
	case OpMax:
		return "MPI_MAX"
	case OpMin:
		return "MPI_MIN"
	case OpLAnd:
		return "MPI_LAND"
	case OpLOr:
		return "MPI_LOR"
	case OpBAnd:
		return "MPI_BAND"
	case OpBOr:
		return "MPI_BOR"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// element accessors on raw little-endian storage.

func getFloat(data []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
}

func putFloat(data []byte, i int, v float64) {
	binary.LittleEndian.PutUint64(data[i*8:], math.Float64bits(v))
}

func getInt(data []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(data[i*8:]))
}

func putInt(data []byte, i int, v int64) {
	binary.LittleEndian.PutUint64(data[i*8:], uint64(v))
}

func boolTo[T int64 | float64](b bool) T {
	if b {
		return 1
	}
	return 0
}

// reduceInto applies dst[i] = op(dst[i], src[i]) elementwise for count
// elements of type t.
func reduceInto(dst, src []byte, t Datatype, op Op, count int) error {
	switch t {
	case TypeDouble:
		for i := 0; i < count; i++ {
			a, b := getFloat(dst, i), getFloat(src, i)
			var r float64
			switch op {
			case OpSum:
				r = a + b
			case OpProd:
				r = a * b
			case OpMax:
				r = math.Max(a, b)
			case OpMin:
				r = math.Min(a, b)
			case OpLAnd:
				r = boolTo[float64](a != 0 && b != 0)
			case OpLOr:
				r = boolTo[float64](a != 0 || b != 0)
			default:
				return fmt.Errorf("mpi: op %v not defined for %v", op, t)
			}
			putFloat(dst, i, r)
		}
	case TypeInt:
		for i := 0; i < count; i++ {
			a, b := getInt(dst, i), getInt(src, i)
			var r int64
			switch op {
			case OpSum:
				r = a + b
			case OpProd:
				r = a * b
			case OpMax:
				r = max(a, b)
			case OpMin:
				r = min(a, b)
			case OpLAnd:
				r = boolTo[int64](a != 0 && b != 0)
			case OpLOr:
				r = boolTo[int64](a != 0 || b != 0)
			case OpBAnd:
				r = a & b
			case OpBOr:
				r = a | b
			default:
				return fmt.Errorf("mpi: op %v not defined for %v", op, t)
			}
			putInt(dst, i, r)
		}
	case TypeByte, TypeChar:
		for i := 0; i < count; i++ {
			a, b := dst[i], src[i]
			var r byte
			switch op {
			case OpSum:
				r = a + b
			case OpProd:
				r = a * b
			case OpMax:
				r = max(a, b)
			case OpMin:
				r = min(a, b)
			case OpBAnd:
				r = a & b
			case OpBOr:
				r = a | b
			case OpLAnd:
				if a != 0 && b != 0 {
					r = 1
				}
			case OpLOr:
				if a != 0 || b != 0 {
					r = 1
				}
			default:
				return fmt.Errorf("mpi: op %v not defined for %v", op, t)
			}
			dst[i] = r
		}
	default:
		return fmt.Errorf("mpi: reduce on unknown datatype %v", t)
	}
	return nil
}
