(** Compact binary wire format: varints and length-prefixed byte
    fields, with total decoders ([Malformed] is confined here so
    Byzantine input cannot crash a node). *)

exception Malformed of string

type writer

val writer : unit -> writer
val contents : writer -> string

(** Empty the writer, keeping its storage for the next encoding. *)
val clear : writer -> unit

val put_varint : writer -> int -> unit
val put_bytes : writer -> string -> unit
val put_bool : writer -> bool -> unit
val put_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val put_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val put_option : writer -> (writer -> 'a -> unit) -> 'a option -> unit

type reader


val get_varint : reader -> int
val get_bytes : reader -> string

(** [get_bytes] without the copy: the field is checked and passed over. *)
val skip_bytes : reader -> unit

val get_bool : reader -> bool
val get_list : reader -> (reader -> 'a) -> 'a list
val get_array : reader -> (reader -> 'a) -> 'a array
val get_option : reader -> (reader -> 'a) -> 'a option

(** [varint_at s ~pos ~limit] decodes the varint at byte [pos] of [s]
    without reading at or past [limit]: [Some (value, next_pos)], or
    [None] where {!get_varint} would raise. Total. *)
val varint_at : string -> pos:int -> limit:int -> (int * int) option

(** [decode data parse] runs [parse] over the whole frame; [None] on
    truncation, trailing bytes, or any [Malformed] failure. *)
val decode : string -> (reader -> 'a) -> 'a option
