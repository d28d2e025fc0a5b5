(** Length-prefixed framing for the serve socket protocol — hand
    rolled, like every reader in this code base (no external deps).

    Wire format of one frame:

    {v
    byte 0        tag: 'J' (JSON) or 'D' (raw data)
    bytes 1..4    payload length, 32-bit big-endian
    bytes 5..     payload
    v}

    ['J'] frames carry one {!Doda_sim.Json} value — every request and
    response. ['D'] frames carry opaque bytes: chunks of a contact
    trace streamed alongside a job, so bulk upload pays no JSON
    escaping; an {e empty} ['D'] frame marks the end of an upload
    body. Frames are written atomically under the caller's connection
    lock, so concurrent writers (the connection thread and the
    executor) never interleave bytes. *)

type t =
  | Json of Doda_sim.Json.t
  | Data of string  (** raw payload chunk; [""] terminates an upload *)

val max_payload : int
(** Hard per-frame ceiling (16 MiB): a corrupt or hostile length
    prefix fails fast instead of allocating unbounded memory. Below
    it, a body is read in steps of at most 64 KiB into a buffer that
    grows as the bytes arrive, so a prefix that promises more than the
    peer sends costs one step, not the promised length. *)

val write : out_channel -> t -> unit
(** Write one frame and flush.
    @raise Invalid_argument if the payload exceeds {!max_payload}. *)

val read : in_channel -> (t, string) result option
(** Read one frame. [None] on clean end-of-stream (EOF at a frame
    boundary); [Some (Error _)] on a truncated frame, an oversized
    length, an unknown tag, or malformed JSON — connection-fatal
    conditions, never raised. *)
