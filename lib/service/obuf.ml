(* Re-export: the buffer moved into [Persist] so the durability plane
   can stage WAL frames in the same zero-copy buffer the response
   flush path uses. Service callers are unaffected. *)
include Persist.Obuf
