(** Compact binary wire format: varints and length-prefixed byte
    fields, with total decoders ([Malformed] is confined here so
    Byzantine input cannot crash a node). *)

exception Malformed of string

type writer

val writer : unit -> writer
val contents : writer -> string

val put_varint : writer -> int -> unit
val put_bytes : writer -> string -> unit
val put_bool : writer -> bool -> unit
val put_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val put_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val put_option : writer -> (writer -> 'a -> unit) -> 'a option -> unit

type reader


val get_varint : reader -> int
val get_bytes : reader -> string
val get_bool : reader -> bool
val get_list : reader -> (reader -> 'a) -> 'a list
val get_array : reader -> (reader -> 'a) -> 'a array
val get_option : reader -> (reader -> 'a) -> 'a option

(** [decode data parse] runs [parse] over the whole frame; [None] on
    truncation, trailing bytes, or any [Malformed] failure. *)
val decode : string -> (reader -> 'a) -> 'a option
