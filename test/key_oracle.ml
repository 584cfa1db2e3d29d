(* The printed cache-key scheme: digests of the canonical printed forms
   of the resolved objects.  The service keys its cache on structural
   fingerprints instead; this scheme stays here as their oracle.  Both
   must agree on which requests hit, because structurally equal objects
   print equal ([Datalog.pp_query] keeps rules in order, [Instance.pp]
   sorts its facts) and the printers are injective on what the service
   loads. *)

let query q = Fmt.str "%a" Datalog.pp_query q
let instance i = Fmt.str "%a" Instance.pp i
let views vs = Fmt.str "%a" View.pp_collection vs
let rpq = Rpq.to_string

(* digest of the canonical parts (verb tag, printed objects, ...),
   order-sensitive *)
let key parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
let eval q i = key [ "eval"; query q; instance i ]

let holds q i tuple =
  key [ "holds"; query q; instance i; String.concat "," tuple ]
