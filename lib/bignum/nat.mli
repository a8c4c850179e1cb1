(** Arbitrary-precision natural numbers.

    Values are immutable. The representation is a little-endian array of
    62-bit limbs, always normalized (no most-significant zero limbs), so
    structural equality coincides with numerical equality. All functions
    are total on naturals; operations that would produce a negative result
    raise [Invalid_argument].

    {b Platform requirement:} 62-bit limbs assume 63-bit native ints,
    i.e. a 64-bit platform. The module raises [Failure] at load time if
    [Sys.int_size < 63] (32-bit or JavaScript backends are unsupported).
    Multiplicative kernels internally split limbs into 31-bit halves so
    every partial product fits the native int range. *)

type t

val zero : t
val one : t
val two : t

(** [of_int n] converts a non-negative [int]. Raises [Invalid_argument]
    if [n < 0]. *)
val of_int : int -> t

(** [to_int n] converts back to [int]. Raises [Invalid_argument] if the
    value does not fit. *)
val to_int : t -> int

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

(** Number of significant bits; [bit_length zero = 0]. *)
val bit_length : t -> int

(** [testbit n i] is bit [i] (little-endian) of [n]. *)
val testbit : t -> int -> bool

val add : t -> t -> t

(** [sub a b] requires [a >= b]; raises [Invalid_argument] otherwise. *)
val sub : t -> t -> t

val mul : t -> t -> t
val sqr : t -> t

(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero]. *)
val divmod : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

(** [is_odd n] is [testbit n 0]. *)
val is_odd : t -> bool

(** Big-endian byte-string conversions. [to_bytes_be ~len n] left-pads
    with zeros to exactly [len] bytes and raises [Invalid_argument] if
    [n] needs more than [len] bytes. *)
val of_bytes_be : string -> t
val to_bytes_be : ?len:int -> t -> string

(** Parse hexadecimal (case-insensitive, no "0x" prefix). Digits are
    packed directly against [base_bits]; no alignment between digit
    width and limb width is assumed. *)
val of_hex : string -> t

(** {2 Limb buffers}

    Crossings between a value and a raw little-endian limb buffer
    ([base_bits]-bit limbs in a plain [int array], paired with a
    significant-limb count). [Fe] uses them to move residues into and
    out of its own fixed-width layout. *)

(** Bits per limb (62). *)
val base_bits : int

(** [of_limbs buf n] copies the first [n] limbs out into a value
    (trimming most-significant zero limbs). *)
val of_limbs : int array -> int -> t

(** [to_limbs_into a buf] copies [a]'s limbs into [buf] (which must be
    large enough) and returns the limb count. *)
val to_limbs_into : t -> int array -> int
