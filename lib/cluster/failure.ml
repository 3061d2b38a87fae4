open Hovercraft_sim
open Hovercraft_core

type bucket = {
  t_s : float;
  krps : float;
  p99_us : float option;
  nacks : int;
}

type outcome = {
  series : bucket list;
  killed_at_s : float;
  killed_node : int option;
  new_leader : int option;
  total_nacked : int;
  consistent : bool;
}

let print_series series =
  Table.print ~header:[ "t (s)"; "kRPS"; "p99 us"; "NACKs" ]
    (List.map
       (fun b ->
         [
           Printf.sprintf "%.1f" b.t_s;
           Printf.sprintf "%.1f" b.krps;
           (match b.p99_us with Some v -> Table.fmt_us v | None -> "-");
           string_of_int b.nacks;
         ])
       series)

(* Union the bucket keys of both series. Iterating only the completion
   buckets (as this used to) silently dropped every NACK that landed in a
   bucket with zero completions — which is exactly the blackout window a
   failure timeline exists to show. *)
let merge_series ~bucket_width ~completions ~nacks =
  let comp = List.map (fun (b : Series.bucket) -> (b.start, b)) completions in
  let nack =
    List.map (fun (b : Series.bucket) -> (b.start, b.count)) nacks
  in
  let starts =
    List.sort_uniq compare (List.map fst comp @ List.map fst nack)
  in
  let w_s = Timebase.to_s_f bucket_width in
  List.map
    (fun start ->
      let count, p99 =
        match List.assoc_opt start comp with
        | Some b -> (b.Series.count, b.Series.p99)
        | None -> (0, None)
      in
      {
        t_s = Timebase.to_s_f start;
        krps = float_of_int count /. w_s /. 1e3;
        p99_us = Option.map Timebase.to_us_f p99;
        nacks = (match List.assoc_opt start nack with Some n -> n | None -> 0);
      })
    starts

let run ?params ?(rate_rps = 165_000.) ?(duration = Timebase.s 2)
    ?(kill_after = Timebase.ms 600) ~workload ~seed () =
  let params =
    match params with Some p -> p | None -> Hnode.params ~mode:Hnode.Hover_pp ()
  in
  let bucket = Timebase.ms 100 in
  let deploy = Deploy.create (Deploy.config ~flow_cap:1000 params) in
  let engine = deploy.Deploy.engine in
  let t0 = Engine.now engine in
  let completions = Series.create ~bucket () in
  let nacks = Series.create ~bucket () in
  let gen =
    Loadgen.create deploy ~clients:8 ~rate_rps ~workload
      ~on_reply:(fun ~rid:_ ~op:_ ~sent_at:_ ~latency ->
        Series.add completions ~at:(Engine.now engine - t0) latency)
      ~on_nack:(fun ~at -> Series.mark nacks ~at:(at - t0))
      ~seed ()
  in
  let killed = ref None in
  Engine.after engine kill_after (fun () -> killed := Deploy.kill_leader deploy);
  let report = Loadgen.run gen ~warmup:0 ~duration () in
  Deploy.quiesce deploy ();
  let series =
    merge_series ~bucket_width:bucket
      ~completions:(Series.buckets completions)
      ~nacks:(Series.buckets nacks)
  in
  {
    series;
    killed_at_s = Timebase.to_s_f kill_after;
    killed_node = !killed;
    new_leader =
      (match Deploy.leader deploy with
      | Some n -> Some (Hnode.id n)
      | None -> None);
    total_nacked = report.Loadgen.nacked;
    consistent = Deploy.consistent deploy;
  }
