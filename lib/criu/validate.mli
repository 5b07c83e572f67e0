(** Integrity checking for checkpoint images: structural invariants plus
    the checksum seal around the tmpfs serialization. Any violation
    raises {!Validate_error} — never a garbage restore. *)

exception Validate_error of string

val check : Images.t -> unit
(** Enforce the structural invariants: page-aligned, non-overlapping
    VMAs; pagemap runs inside both the pages buffer and the VMA set;
    [rip] inside a mapped executable VMA; sane sigactions and fd table. *)

val checksum : string -> int64
(** {!Bytesx.checksum} over the whole string. *)

val seal : string -> string
(** Prefix a payload with the frame header ({!header_size} bytes: magic
    [DCCK\x03], payload length, root sum, and an empty page area at the
    payload's end). *)

val unseal : string -> string
(** Verify and strip the seal; raises {!Validate_error} on truncation or
    corruption. The message names the failure kind (truncated /
    bad-magic / checksum-mismatch) and the byte offset where the reader
    gave up. *)

type tear_kind =
  | Truncated  (** blob ends mid-header or mid-payload *)
  | Bad_magic  (** bytes at the frame boundary are not a seal header *)
  | Checksum_mismatch  (** frame intact in shape, payload corrupted *)

type tear = {
  t_offset : int;  (** byte offset of the start of the torn frame *)
  t_kind : tear_kind;
}

val tear_kind_to_string : tear_kind -> string
val pp_tear : Format.formatter -> tear -> unit

val unseal_frames : string -> string list * tear option
(** Split a concatenation of sealed frames (the journal file layout)
    into the payloads of the longest valid prefix; [Some tear] reports a
    torn tail — truncation mid-frame, bad magic, or a checksum mismatch
    — located at the byte offset where the torn frame starts. Never
    raises: a crash can tear the last frame, and the prefix is exactly
    what recovery needs. *)

val seal_at : site:Fault.Site.t -> string -> string
(** [seal], then pass the sealed frame through [Fault.corruptible site]:
    a [Fault.Corrupt] fault armed at [site] mangles the frame on the way
    to storage (seeded bit-flip or truncation), exercising the checksum
    detection end-to-end. Identity sealing otherwise. *)

val header_size : int
(** The bytes a frame's header takes in front of its payload: what a
    frame-shaped buffer reserves ({!Images.layout}). *)

val encode_sealed : Images.t -> string
(** [seal (Images.encode img)], encoded straight behind the header in a
    fresh buffer: the pages are copied once. The leaf sums the seal
    takes land in [img]'s table. *)

val seal_in_place : Images.t -> Images.t * string
(** [img]'s sealed frame, built in [img]'s own buffer when that buffer
    is laid out for it ({!Images.frame}): then no page is copied, and
    only the header, head, tail and the pages whose sum is unknown are
    written or hashed. Returns the image that reads from the frame. The
    frame shares that image's buffer: once the frame is stored, nothing
    may write the image again. *)

val decode_sealed : string -> Images.t
(** [unseal] + decode + [check], without copying the payload: it is
    checksummed and decoded where it lies in the blob, and the decoder
    may not read past its end. Decode failures are reported as
    {!Validate_error}. *)

val check_stored : sealed:string -> string -> unit
(** [check_stored ~sealed stored] checks that a frame read back from
    storage is byte for byte the sealed frame written, without copying
    or decoding it. On a mismatch the seal is verified first, so the
    {!Validate_error} names the damage the way {!unseal} does. *)
