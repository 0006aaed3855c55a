type sample = { tick : int; value : int }

type t = {
  mutable samples : sample list; (* newest first *)
  mutable n : int;
}

let default_port = 0x12
let create () = { samples = []; n = 0 }

let attach hb ?(port = default_port) machine =
  let write _width value =
    hb.samples <-
      { tick = Ssx.Machine.ticks machine; value = Ssx.Word.mask value }
      :: hb.samples;
    hb.n <- hb.n + 1
  in
  Ssx.Machine.register_port machine ~port ~read:(fun _ -> 0) ~write;
  (* The sample buffer is part of a trial's observable state: snapshot
     restore must rewind it along with RAM (the list is immutable, so
     capturing the head suffices). *)
  Ssx.Machine.add_resettable machine (fun () ->
      let samples = hb.samples and n = hb.n in
      fun () ->
        hb.samples <- samples;
        hb.n <- n)

let samples hb = List.rev hb.samples
let last hb = match hb.samples with [] -> None | s :: _ -> Some s
let count hb = hb.n
let counts hb = [ ("device.heartbeat.count", hb.n) ]
