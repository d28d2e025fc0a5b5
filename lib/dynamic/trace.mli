(** Contact-trace I/O: interaction sequences as plain text, one
    interaction per line. Lets experiments replay externally collected
    contact traces and archive generated ones.

    {b Grammar.} Lines end at ['\n']; a last line without one is still
    a line. A line is read as follows: remove spaces, tabs, CR, LF and
    form feeds at both ends ([String.trim]). An empty result or one
    starting with [#] is skipped. Otherwise split it on single spaces
    and drop the empty pieces: there must be exactly three, [time u v],
    each an OCaml integer literal ([int_of_string]: a sign, [0x] /
    [0o] / [0b] / [0u] prefixes and [_] separators are accepted), or
    the line is malformed. Only spaces separate fields: a tab, CR or
    form feed is allowed at a line's ends, not between its fields.
    Line numbers in messages count physical lines, comments and blank
    lines included.

    {b Reading.} {!load}, {!stream} and {!stream_channel} read through
    one 64 KiB buffer refilled from the file or channel (a longer line
    grows it). Every reader parses a line made of spaces and three
    decimal fields of at most 18 digits in place, with no allocation;
    any other line is read by the grammar above on a copy. *)

val save : string -> Sequence.t -> unit
(** [save path s] writes [s]; times are the sequence indices. *)

val load : string -> Sequence.t
(** [load path] parses a trace in one pass over the file. Lines must
    be sorted by time; times must be exactly [0, 1, 2, ...] (the model
    has one interaction per time unit). @raise Failure with a
    line-numbered message on malformed input. *)

val stream : string -> (int -> Interaction.t) * int * int
(** [stream path] is [(gen, length, max_node)]: a validating first
    pass over the trace in O(1) memory (length, largest node id,
    well-formedness — same errors as {!load}), plus a stateful
    generator reading one interaction per index {e in increasing
    order} on demand. Built for
    [Schedule.of_fun_chunked ~length gen]: replaying a huge trace
    costs one block of memory instead of the whole sequence. The
    generator holds no file descriptor between block reads: each read
    opens the file, seeks to where the last one stopped, reads one
    buffer and closes it, so a run that stops early leaves nothing
    open.
    @raise Failure on malformed input, out-of-order access, or
    reading past [length]. *)

val stream_lines :
  length:int -> (unit -> string option) -> (int -> Interaction.t)
(** One-pass variant of {!stream} for {e non-seekable} inputs (pipes,
    sockets), where no validating first pass is possible: the caller
    declares [length] (e.g. from an upload header) and supplies a line
    producer ([None] = end of input). Each string is one whole line.
    The returned generator follows the {!stream} contract — one
    interaction per index, strictly increasing — and validates each
    line as it arrives. Built for [Schedule.of_fun_chunked ~length]: a
    trace arriving on a socket runs in O(block) memory without ever
    touching a file.
    @raise Failure on malformed input, time gaps, out-of-order access,
    input ending before [length] lines, or reading past [length]. *)

val stream_channel : length:int -> in_channel -> (int -> Interaction.t)
(** {!stream_lines} over the lines of [ic] — the [Unix.pipe] /
    [in_channel_of_descr] case. [ic] is read a buffer at a time, so
    bytes after the line holding interaction [length - 1] may be
    consumed. *)

val parse_line : string -> (int * int * int) option
(** [parse_line l] reads [l] as one whole line: [Some (t, u, v)], or
    [None] for blank/comment lines. @raise Failure on malformed
    content. *)

val to_channel : out_channel -> Sequence.t -> unit
