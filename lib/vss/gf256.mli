(** GF(2^8) with the AES reduction polynomial. *)

val add : int -> int -> int
val sub : int -> int -> int
val mul : int -> int -> int

(** Raises [Division_by_zero] on a zero divisor. *)
val div : int -> int -> int

(** Horner evaluation; coefficients are ordered constant-term first. *)
val poly_eval : int array -> int -> int
