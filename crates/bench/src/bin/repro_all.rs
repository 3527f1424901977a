//! Run every table/figure generator in sequence (each also exists as its
//! own binary for selective reruns).

fn main() {
    let bins = [
        "table1", "table2", "table3", "table4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    ];
    println!("Reproducing all tables and figures → out/*.csv\n");
    for b in bins {
        println!("\n##### {b} #####");
        let status = std::process::Command::new(std::env::current_exe().unwrap().with_file_name(b))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {b}: {e}"));
        assert!(status.success(), "{b} failed");
    }
    println!(
        "\nAll experiments regenerated. See perfbench/README.md for the end-to-end benchmark."
    );
}
