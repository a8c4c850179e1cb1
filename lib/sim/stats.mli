(** Latency/throughput measurement for the evaluation harness. *)

type sample_set

val sample_set : unit -> sample_set
val record : sample_set -> float -> unit
val mean : sample_set -> float
val median : sample_set -> float
val p99 : sample_set -> float
val max_sample : sample_set -> float

(** [throughput ~completed ~duration] in operations per (virtual)
    second; 0 for an empty window. *)
val throughput : completed:int -> duration:float -> float
