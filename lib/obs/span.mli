(** Monotonic-clock spans in a fixed-capacity ring buffer.

    Events carry a name, a start offset and duration in nanoseconds
    (relative to the sink's creation epoch, from [CLOCK_MONOTONIC]),
    and the recording domain's id. The ring overwrites its oldest
    entry when full and counts the drops, so recording never
    allocates and never grows. The {!null} sink makes {!with_span} a
    single branch around the wrapped call. *)

type t
(** An event sink. Single-domain; parallel work records into
    {!shard}s folded back with {!absorb}. *)

val null : t
(** The shared disabled sink. *)

val create : ?capacity:int -> ?clock:(unit -> int) -> unit -> t
(** An enabled sink. [capacity] (default 4096) is the ring size;
    [clock] (default the monotonic clock, nanoseconds) is overridable
    for tests. @raise Invalid_argument if [capacity < 1]. *)

val enabled : t -> bool

val length : t -> int
(** Events currently held (at most the capacity). *)

val dropped : t -> int
(** Oldest events overwritten since creation. *)

(** {1 Recording} *)

type span
(** An open span: a name and a start timestamp. *)

val begin_span : t -> string -> span
val end_span : t -> span -> unit

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Time [f] and record on return (also on exception). On a disabled
    sink this is exactly one branch plus the call. *)

val instant : t -> string -> unit
(** A zero-duration marker event. *)

(** {1 Sharding} *)

val shard : t -> t
(** A fresh sink for one worker slot sharing the parent's clock,
    epoch and capacity — the identity on a disabled sink. *)

val absorb : t -> t -> unit
(** [absorb parent child] appends [child]'s events, oldest first,
    keeping their timestamps and domain ids (they share the parent's
    epoch when [child] came from [shard parent]). Adds [child]'s drop
    count to the parent's. *)

(** {1 Read-out} *)

type event = {
  name : string;
  start_ns : int;  (** ns since the sink's epoch *)
  dur_ns : int;  (** ns; negative marks an instant event *)
  tid : int;  (** recording domain id *)
}

val is_instant : event -> bool

val events : t -> event list
(** Oldest first. *)

val summary : t -> string
(** Per-name calls/total/mean/max table, sorted by name; notes
    dropped events. [""] for a disabled sink. *)
